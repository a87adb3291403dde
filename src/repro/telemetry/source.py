"""The trace-source abstraction: one protocol for synthetic and measured fleets.

The survey pipeline does not care where its traces come from.  A
:class:`TraceSource` is anything that can enumerate (metric, device) pairs
and serve their traces -- the synthetic
:class:`~repro.telemetry.dataset.FleetDataset` regenerates them from a
config, while :class:`~repro.telemetry.measured.MeasuredFleetDataset`
streams recorded traces from a directory of per-pair files.  Both run
through ``run_survey(workers=N, sink=...)`` unchanged.

:class:`BaseTraceSource` carries the shared machinery: slice-validated
``traces`` iteration, the equal-shape :class:`TraceBatch` grouping the
batched spectral engine feeds on, and ``export`` (round-trip any source to
a measured-trace directory).  Concrete sources only implement the pair
table, the per-pair loader, and a picklable ``worker_spec`` that the
multi-worker survey ships to its process pool.  :class:`DelegatingTraceSource`
is the base of source decorators (fault injection, scenario transforms)
that serve another source's pairs with changed traces.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Iterator, Literal, Protocol, Sequence,
                    runtime_checkable)

import numpy as np

from ..signals.timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (measured imports source)
    from .measured import MeasuredFleetDataset

__all__ = ["TraceBatch", "TraceSource", "WorkerSpec", "BaseTraceSource",
           "DelegatingTraceSource", "batch_offsets"]


def batch_offsets(source: "TraceSource", metric_name: str,
                  limit: int | None = None,
                  chunk_size: int = 1024) -> list[tuple[int, int]]:
    """``(offset, limit)`` slice addresses of one metric at ``chunk_size`` boundaries.

    The slice driver (:mod:`repro.analysis.driver`) runs every execution
    mode -- inline, pooled, store-backed, quarantined -- on these slices,
    so block boundaries are the same at any worker count, even where a
    metric mixes (length, interval) shapes.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    count = len(source.pairs_for_metric(metric_name))
    if limit is not None:
        count = min(count, limit)
    return [(offset, min(chunk_size, count - offset))
            for offset in range(0, count, chunk_size)]


@dataclass(frozen=True)
class TraceBatch:
    """A group of equal-shape traces laid out as one matrix.

    Attributes
    ----------
    pairs:
        The (metric, device) pairs behind each row, in row order.  Each
        pair exposes ``key``, ``device.device_id`` and
        ``parameters.true_nyquist_rate`` regardless of whether it is a
        synthetic :class:`~repro.telemetry.dataset.TracePair` or a
        :class:`~repro.telemetry.measured.MeasuredPair`.
    values:
        ``(len(pairs), n)`` matrix; row ``i`` is the trace of ``pairs[i]``.
    interval:
        The common sampling interval of every row, in seconds.
    """

    pairs: tuple
    values: np.ndarray
    interval: float

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def sampling_rate(self) -> float:
        return 1.0 / self.interval


@runtime_checkable
class WorkerSpec(Protocol):
    """A picklable address of a trace source, shipped to survey workers.

    ``open()`` reconstructs the source inside the worker process: a
    :class:`~repro.telemetry.dataset.DatasetConfig` regenerates its
    synthetic fleet, a
    :class:`~repro.telemetry.measured.MeasuredSourceSpec` re-opens its
    manifest directory.  Specs must be hashable so workers can cache the
    opened source across tasks.
    """

    def open(self) -> "TraceSource": ...


@runtime_checkable
class TraceSource(Protocol):
    """What the survey pipeline requires of a dataset (synthetic or measured)."""

    @property
    def trace_duration(self) -> float: ...

    def pairs(self) -> Sequence: ...

    def pairs_for_metric(self, metric_name: str) -> Sequence: ...

    def metric_names(self) -> list[str]: ...

    def load(self, pair: Any) -> TimeSeries: ...

    def traces(self, metric_name: str | None = None, limit: int | None = None,
               offset: int = 0) -> Iterator[tuple[object, TimeSeries]]: ...

    def trace_batches(self, metric_name: str | None = None, limit: int | None = None,
                      chunk_size: int = 1024, offset: int = 0) -> Iterator[TraceBatch]: ...

    def worker_spec(self) -> WorkerSpec: ...

    def pair_content_token(self, pair: Any) -> str: ...

    def __len__(self) -> int: ...


class BaseTraceSource(ABC):
    """Shared iteration/batching/export machinery of every trace source."""

    # ------------------------------------------------------------------
    # What concrete sources implement
    # ------------------------------------------------------------------
    @abstractmethod
    def pairs(self) -> Sequence:
        """All (metric, device) pairs of the survey, in survey order."""

    @abstractmethod
    def pairs_for_metric(self, metric_name: str) -> Sequence:
        """All pairs belonging to one metric family."""

    @abstractmethod
    def metric_names(self) -> list[str]:
        """Metrics included in this source, in survey order."""

    @abstractmethod
    def load(self, pair: Any) -> TimeSeries:
        """Produce the trace for one pair."""

    @property
    @abstractmethod
    def trace_duration(self) -> float:
        """Nominal length of each trace in seconds."""

    @abstractmethod
    def worker_spec(self) -> WorkerSpec:
        """Picklable spec from which a survey worker re-opens this source."""

    def pair_content_token(self, pair: Any) -> str:
        """Deterministic string identifying one pair's trace *content*.

        The :class:`~repro.records.RecordStore` fingerprints a record
        slice over these tokens: two runs whose tokens (and parameters)
        agree are served the cached bytes, so a token must change whenever
        the pair's trace data can.  The default derives identity from the
        worker-spec repr plus the pair's key -- exact for sources whose
        traces are a pure function of a frozen spec (synthetic fleets,
        deployments).  Sources reading mutable inputs (trace files)
        override it with a content hash.
        """
        metric_name, device_id = pair.key
        return f"{self.worker_spec()!r}|{metric_name}|{device_id}"

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pairs())

    def _select_pairs(self, metric_name: str | None, limit: int | None,
                      offset: int) -> Sequence:
        """Resolve a ``[offset, offset + limit)`` slice of the pair list.

        A bad address fails loudly: an ``offset`` at or past the end of
        the pair list means a worker batch spec no longer matches the
        dataset (or manifest) it was built against, and silently yielding
        nothing would drop records from the survey.
        """
        if offset < 0:
            raise ValueError("offset must be >= 0")
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        selected: Sequence
        selected = self.pairs() if metric_name is None else self.pairs_for_metric(metric_name)
        if offset and offset >= len(selected):
            scope = f"metric {metric_name!r}" if metric_name is not None else "the pair list"
            raise ValueError(
                f"offset {offset} is past the end of {scope} ({len(selected)} pairs); "
                "the batch spec does not match this source")
        if offset:
            selected = selected[offset:]
        if limit is not None:
            selected = selected[:limit]
        return selected

    def traces(self, metric_name: str | None = None,
               limit: int | None = None,
               offset: int = 0) -> Iterator[tuple[object, TimeSeries]]:
        """Iterate (pair, trace) tuples, optionally restricted to one metric.

        ``offset`` skips that many leading pairs (applied before
        ``limit``), which is how the multi-worker survey pipeline
        addresses disjoint slices of one metric's pair list: each worker
        serves only its ``[offset, offset + limit)`` slice.  An offset at
        or past the end of the pair list raises ``ValueError`` instead of
        silently yielding nothing.
        """
        for pair in self._select_pairs(metric_name, limit, offset):
            yield pair, self.load(pair)

    def trace_batches(self, metric_name: str | None = None,
                      limit: int | None = None,
                      chunk_size: int = 1024,
                      offset: int = 0) -> Iterator[TraceBatch]:
        """Iterate the survey as equal-shape :class:`TraceBatch` matrices.

        Consecutive traces that share a (length, interval) shape are
        stacked into one ``(rows, n)`` matrix, flushed whenever the shape
        changes or ``chunk_size`` rows are buffered.  This is the feed for
        the batched spectral engine: memory stays bounded at
        ``chunk_size`` traces regardless of fleet size, and concatenating
        the batches' pairs reproduces :meth:`traces` order exactly.
        ``offset``/``limit`` select a slice of the pair list (offset
        first); the slice driver feeds each ``chunk_size`` slice through
        here, so every execution mode builds the same matrices.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        buffered_pairs: list = []
        buffered_values: list[np.ndarray] = []
        key: tuple[int, float] | None = None

        def flush() -> Iterator[TraceBatch]:
            if buffered_pairs:
                assert key is not None
                yield TraceBatch(tuple(buffered_pairs), np.vstack(buffered_values), key[1])
                buffered_pairs.clear()
                buffered_values.clear()

        for pair, trace in self.traces(metric_name, limit=limit, offset=offset):
            trace_key = (len(trace), trace.interval)
            if key is not None and (trace_key != key or len(buffered_pairs) >= chunk_size):
                yield from flush()
            key = trace_key
            buffered_pairs.append(pair)
            buffered_values.append(trace.values)
        yield from flush()

    # ------------------------------------------------------------------
    def export(self, directory: Path | str,
               fmt: Literal["rcb", "csv"] = "rcb") -> "MeasuredFleetDataset":
        """Round-trip this source to a measured-trace directory on disk.

        Writes one trace file per pair plus a ``manifest.json`` of
        (metric, device, interval, length) entries, then re-opens the
        directory as a :class:`~repro.telemetry.measured.MeasuredFleetDataset`
        -- which surveys byte-identically to this source.
        """
        from .measured import MeasuredFleetDataset, export_traces
        export_traces(self, directory, fmt=fmt)
        return MeasuredFleetDataset(directory)

    def export_gnmi_dump(self, path: Path | str) -> Path:
        """Write this source as an interleaved gNMI-style JSON-lines dump.

        The raw-stream counterpart of :meth:`export`: one
        timestamp/device/path/value update per line, all pairs interleaved
        in global time order.  ``repro.telemetry.ingest`` converts such a
        dump back into a surveyable measured-fleet directory, reproducing
        every trace bit for bit.
        """
        from .ingest import export_gnmi_dump
        return export_gnmi_dump(self, path)


class DelegatingTraceSource(BaseTraceSource):
    """Base of :class:`TraceSource` decorators: another source's pairs, changed traces.

    Pair tables, metric order and the trace duration are the inner
    source's.  Subclasses implement ``load``, ``worker_spec`` and
    ``_token_part``.  A pair's content token is the inner source's token
    plus that part, so a :class:`~repro.records.RecordStore` keys a
    wrapped pair on the inner trace's content (a measured fleet hashes its
    file bytes) and on what the wrapper does to it.
    """

    def __init__(self, inner: TraceSource) -> None:
        self.inner = inner

    def pairs(self) -> Sequence:
        return self.inner.pairs()

    def pairs_for_metric(self, metric_name: str) -> Sequence:
        return self.inner.pairs_for_metric(metric_name)

    def metric_names(self) -> list[str]:
        return self.inner.metric_names()

    @property
    def trace_duration(self) -> float:
        return self.inner.trace_duration

    def pair_content_token(self, pair: Any) -> str:
        return f"{self.inner.pair_content_token(pair)}|{self._token_part()}"

    @abstractmethod
    def _token_part(self) -> str:
        """What this wrapper does to every trace, as a content-token suffix."""
