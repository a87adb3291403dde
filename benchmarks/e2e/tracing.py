"""Outside-in span tracing for the end-to-end benchmark.

The benchmark times each layer of the program from outside: it hands the
public entry points (``run_survey``, ``run_policy_survey``,
``ingest_dump``) delegating wrappers through their public parameters --
``dataset=``, ``estimator=``, ``policies=``, ``accountant=``, ``sink=``,
``store=`` and an opened ``TelemetryDump`` -- and each wrapper records a
span around the calls it forwards.  Nothing inside the library changes.

Span model
----------
A span is ``{id, parent, job, name, start, end, rows, calls}``; its
parent is the innermost span open when it started, and every span of one
job carries the job's number.  A layer's *self time* is its spans'
duration minus the part of that interval their child spans cover.  The
job span itself is named ``analysis.driver``: its self time is the
library's own code between the wrapped calls.

The gNMI parse loop yields one update per dump line (tens of thousands
per ingest), so its ``next()`` calls are rolled up: the loop span
(``telemetry.ingest.accumulate``) runs from the first ``next()`` to
``StopIteration``, and one child span (``telemetry.ingest.parse``)
carries the summed ``next()`` time and the call count.  The child's
position inside the loop is nominal; only its duration is measured.

Wrappers must be transparent: every attribute they do not time is
forwarded to the wrapped object, ``cache_token()`` included -- the
record store keys entries on it, and a token that named the wrapper
class would turn warm store hits into misses.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.telemetry.ingest import TelemetryDump

__all__ = ["DRIVER", "PHASED", "Span", "Tracer", "self_times", "job_layers",
           "TracedSource", "TracedEstimator", "TracedSuite", "TracedPolicy",
           "TracedAccountant", "TracedSink", "TracedStore", "TracedDump"]

#: Name of the per-job span; its self time is the driver's own work.
DRIVER = "analysis.driver"

#: Spans whose self time is reported as ``.open`` and ``.finish`` phases.
PHASED = frozenset({"telemetry.ingest"})


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    id: int
    parent: int | None
    job: int | None
    name: str
    start: float
    end: float = float("nan")
    rows: int = 0
    calls: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "job": self.job,
                "name": self.name, "start": self.start, "end": self.end,
                "rows": self.rows, "calls": self.calls}


class Tracer:
    """Records spans in memory; one tracer per benchmark process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._job: int | None = None

    # ------------------------------------------------------------------
    def open(self, name: str, start: float | None = None) -> Span:
        """Start a span as a child of the innermost open span."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._job, name,
                    self.clock() if start is None else start)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, rows: int = 0) -> None:
        """End ``span``, which must be the innermost open span."""
        span.end = self.clock()
        span.rows = rows
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed while {popped.name!r} is open")

    def call(self, name: str, function: Callable[..., Any], *args: Any,
             rows: int = 0, **kwargs: Any) -> Any:
        """Run ``function`` inside a span named ``name``."""
        span = self.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.close(span, rows)

    def iterate(self, name: str, iterator: Iterable[Any],
                rows: Callable[[Any], int] | None = None) -> Iterator[Any]:
        """Re-yield ``iterator`` with one span around every ``next()``."""
        items = iter(iterator)
        while True:
            span = self.open(name)
            count = 0
            try:
                item = next(items)
                count = rows(item) if rows is not None else 0
            except StopIteration:
                return
            finally:
                self.close(span, count)
            yield item

    def loop(self, loop_name: str, item_name: str,
             iterator: Iterable[Any]) -> Iterator[Any]:
        """Re-yield a hot iterator under one loop span plus one rolled-up child.

        The loop span stays open between ``next()`` calls, so the
        consumer's work on each item is the loop's self time; the
        ``next()`` calls themselves are summed into a single child span
        named ``item_name``.
        """
        items = iter(iterator)
        clock = self.clock
        loop: Span | None = None
        busy = 0.0
        calls = 0
        try:
            while True:
                before = clock()
                if loop is None:
                    loop = self.open(loop_name, start=before)
                try:
                    item = next(items)
                except StopIteration:
                    busy += clock() - before
                    calls += 1
                    return
                busy += clock() - before
                calls += 1
                yield item
        finally:
            if loop is not None:
                parse = Span(len(self.spans), loop.id, self._job, item_name,
                             loop.start, loop.start + busy, 0, calls)
                self.spans.append(parse)
                self.close(loop, calls - 1)

    # ------------------------------------------------------------------
    def begin_job(self, job: int) -> Span:
        """Open the job span; every span until :meth:`end_job` belongs to it."""
        if self._stack:
            raise RuntimeError("a job started while spans are still open")
        self._job = job
        return self.open(DRIVER)

    def end_job(self, span: Span) -> list[Span]:
        """Close the job span and return the job's spans.

        Spans a raising job left open end here too, so the stack is empty
        for the next job.
        """
        while self._stack and self._stack[-1] is not span:
            self.close(self._stack[-1])
        self.close(span)
        self._job = None
        return [item for item in self.spans[span.id:] if item.job == span.job]

    def write_jsonl(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for left, right in sorted(intervals):
        left, right = max(left, reach), min(right, end)
        if right > left:
            covered += right - left
            reach = right
    return covered


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: span.duration - _covered(span.start, span.end,
                                              children.get(span.id, []))
            for span in spans}


def job_layers(spans: Sequence[Span]) -> dict[str, list[float]]:
    """Per-layer ``[self_s, calls, rows]`` totals of one job's spans.

    The self time of a :data:`PHASED` span splits into an ``.open`` part
    (before its first child starts) and a ``.finish`` part (after its
    last child ends): the ``ingest_dump`` call divides into set-up and
    the finishing pass around its parse loop.  Any self time between
    children stays under the span's own name.
    """
    own = self_times(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    layers: dict[str, list[float]] = {}

    def add(name: str, seconds: float, calls: int, rows: int) -> None:
        entry = layers.setdefault(name, [0.0, 0, 0])
        entry[0] += seconds
        entry[1] += calls
        entry[2] += rows

    for span in spans:
        kids = children.get(span.id)
        if span.name not in PHASED or not kids:
            add(span.name, own[span.id], span.calls, span.rows)
            continue
        opening = min(kid.start for kid in kids) - span.start
        finishing = span.end - max(kid.end for kid in kids)
        add(span.name + ".open", opening, span.calls, 0)
        add(span.name + ".finish", finishing, 0, 0)
        add(span.name, own[span.id] - opening - finishing, 0, span.rows)
    return layers


# ----------------------------------------------------------------------
# Delegating wrappers
# ----------------------------------------------------------------------
class _Delegate:
    """Forwards every attribute it does not define to the wrapped object."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TracedSource(_Delegate):
    """A ``TraceSource`` whose pair table and batches are timed.

    These are the calls the batched pipelines make; anything else is
    forwarded untimed and so shows up as ``analysis.driver`` time.
    """

    LAYER = "telemetry.source"

    def __len__(self) -> int:
        return len(self._inner)

    def pairs(self) -> Sequence:
        return self._tracer.call(self.LAYER, self._inner.pairs)

    def pairs_for_metric(self, metric_name: str) -> Sequence:
        return self._tracer.call(self.LAYER, self._inner.pairs_for_metric, metric_name)

    def metric_names(self) -> list[str]:
        return self._tracer.call(self.LAYER, self._inner.metric_names)

    def trace_batches(self, metric_name: str | None = None, limit: int | None = None,
                      chunk_size: int = 1024, offset: int = 0) -> Iterator[Any]:
        return self._tracer.iterate(
            self.LAYER, self._inner.trace_batches(metric_name, limit=limit,
                                                  chunk_size=chunk_size, offset=offset),
            rows=len)

    def pair_content_token(self, pair: Any) -> str:
        return self._tracer.call(self.LAYER + ".token", self._inner.pair_content_token,
                                 pair)


class TracedEstimator(_Delegate):
    """A ``NyquistEstimator`` whose batched estimates are timed."""

    def estimate_batch(self, values: Any, interval: float,
                       fft_workers: int | None = None) -> Any:
        return self._tracer.call("core.nyquist", self._inner.estimate_batch, values,
                                 interval, fft_workers=fft_workers, rows=len(values))


class TracedPolicy(_Delegate):
    """A ``SamplingPolicy`` whose batch evaluation is timed under its own name."""

    def evaluate_batch(self, values: Any, interval: float) -> Any:
        return self._tracer.call(f"pipeline.policies.{self._inner.name}",
                                 self._inner.evaluate_batch, values, interval,
                                 rows=len(values))


class TracedSuite(_Delegate):
    """A policy suite that builds :class:`TracedPolicy` wrappers."""

    def build(self, reference_interval: float) -> list[TracedPolicy]:
        return [TracedPolicy(policy, self._tracer)
                for policy in self._inner.build(reference_interval)]


class TracedAccountant(_Delegate):
    """A ``TelemetryCostAccountant`` whose block pricing is timed."""

    def price_sample_block(self, devices: Sequence[str], samples: Any) -> Any:
        return self._tracer.call("network.cost", self._inner.price_sample_block,
                                 devices, samples, rows=len(devices))


class TracedSink(_Delegate):
    """A ``RecordSink`` whose appends are timed."""

    def append(self, block: Any) -> None:
        self._tracer.call("records.sinks", self._inner.append, block, rows=len(block))


class TracedStore(_Delegate):
    """A ``RecordStore`` whose lookups and publications are timed."""

    def get(self, fingerprint: Any) -> Any:
        return self._tracer.call("records.store.get", self._inner.get, fingerprint)

    def put(self, fingerprint: Any, blocks: Sequence[Any]) -> None:
        self._tracer.call("records.store.put", self._inner.put, fingerprint, blocks,
                          rows=sum(len(block) for block in blocks))


@dataclass(frozen=True)
class TracedDump(TelemetryDump):
    """An opened dump whose update stream is timed as the ingest loop.

    ``ingest_dump`` requires a ``TelemetryDump`` instance, so this wrapper
    subclasses it instead of delegating; the manifest records only the
    path and format, which are the wrapped dump's own.
    """

    tracer: Tracer

    def updates(self, record_failure: Any = None) -> Iterator[Any]:
        return self.tracer.loop("telemetry.ingest.accumulate", "telemetry.ingest.parse",
                                super().updates(record_failure))
