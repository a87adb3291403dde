"""Applying a :class:`FaultPlan`: wrappers that actually break things.

:class:`FaultInjectingTraceSource` wraps any
:class:`~repro.telemetry.source.TraceSource` and injects the plan's
per-pair faults at ``load`` time (raising kinds raise; data kinds distort
the returned trace) and its worker crashes at ``trace_batches`` time.  Its
worker spec wraps the inner source's spec, so a multi-worker survey
injects the same faults in every worker process.

:func:`corrupt_dump_lines` mangles a raw telemetry dump (gNMI JSON-lines
or SNMP CSV) so the streaming importer meets malformed lines mid-stream.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from ..signals.distortions import apply_data_fault
from ..signals.timeseries import TimeSeries
from ..telemetry.source import DelegatingTraceSource, TraceBatch, TraceSource, WorkerSpec
from .plan import FaultPlan

__all__ = ["FaultInjectingSourceSpec", "FaultInjectingTraceSource",
           "corrupt_dump_lines"]

#: Fraction of a ``blackout``/``device-reboot`` pair's trace the injected
#: window covers.
_WINDOW_FRACTION = 0.2


@dataclass(frozen=True)
class FaultInjectingSourceSpec:
    """Picklable worker address of a fault-injecting source.

    Wraps the inner source's spec plus the plan, so pool workers re-open
    the *same* chaos: pair assignment is digest-driven and the once-only
    fault state lives in the plan's ``state_dir``.
    """

    inner: WorkerSpec
    plan: FaultPlan

    def open(self) -> "FaultInjectingTraceSource":
        return FaultInjectingTraceSource(self.inner.open(), self.plan)


class FaultInjectingTraceSource(DelegatingTraceSource):
    """A :class:`TraceSource` decorator that injects a plan's faults.

    Pair tables, metric order and trace shapes are the inner source's;
    only affected pairs behave differently:

    * ``corrupt-trace`` / ``truncated-trace`` raise ``ValueError`` from
      ``load`` -- the same exception (and phrasing) a
      :class:`~repro.telemetry.measured.MeasuredFleetDataset` raises for
      a genuinely damaged file, so downstream handling cannot tell
      injected faults from real ones.
    * ``io-error`` raises ``OSError`` for the plan's first
      ``io_error_opens`` opens, then serves the trace -- the transient
      fault the retry path is measured against.
    * ``counter-wrap`` / ``device-reboot`` / ``blackout`` return a
      distorted trace (level reset from a seeded position; a seeded
      window of a fifth of the trace pinned to the boot level; a seeded
      gap of the same width backfilled with the value last seen before
      it).
    * ``plan.crash_slices`` kill the *worker process* the first time it
      serves that (metric, offset) slice -- only ever inside a pool
      worker, never the parent.

    The content token folds into the inner token the plan fields that
    decide which pair gets which data fault and where (``seed``,
    ``fraction``, ``kinds``; the fixed window fraction is written as the
    literal ``blackout_fraction=0.2`` it was when it was a field), so a
    :class:`~repro.records.RecordStore` misses when either the inner
    trace or a served distortion changes.  ``state_dir``,
    ``io_error_opens``, ``malformed_line_every`` and ``crash_slices``
    stay out: a pair they touch either serves its inner trace or fails,
    and failed slices are never cached.
    """

    def __init__(self, inner: TraceSource, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan

    def worker_spec(self) -> FaultInjectingSourceSpec:
        return FaultInjectingSourceSpec(self.inner.worker_spec(), self.plan)

    def _token_part(self) -> str:
        plan = self.plan
        return (f"faults=seed={plan.seed!r},fraction={plan.fraction!r},"
                f"kinds={plan.kinds!r},blackout_fraction=0.2")

    # ------------------------- fault injection ------------------------
    def load(self, pair: Any) -> TimeSeries:
        metric_name, device_id = pair.key
        kind = self.plan.kind_for(metric_name, device_id)
        if kind is None:
            return self.inner.load(pair)
        if kind == "io-error":
            if self.plan.consume_io_error(metric_name, device_id):
                raise OSError(f"injected transient IO error opening the trace of "
                              f"{metric_name}@{device_id}")
            return self.inner.load(pair)
        if kind in ("corrupt-trace", "truncated-trace"):
            adjective = "corrupt" if kind == "corrupt-trace" else "truncated"
            raise ValueError(f"corrupt or truncated trace file "
                             f"{metric_name}@{device_id} (injected {adjective} trace)")
        return self._distort(self.inner.load(pair), kind, metric_name, device_id)

    def _distort(self, trace: TimeSeries, kind: str, metric_name: str,
                 device_id: str) -> TimeSeries:
        """Apply one data-degrading fault kind to a loaded trace.

        Placement is drawn from the plan's per-pair RNG; the distortion
        itself is the shared pure function in
        :mod:`repro.signals.distortions`, so a fault-injected pair and a
        :mod:`repro.scenarios` workload pair degrade identically.
        """
        values = apply_data_fault(kind, trace.values,
                                  self.plan.rng_for(metric_name, device_id),
                                  window_fraction=_WINDOW_FRACTION)
        return TimeSeries(values, trace.interval, start_time=trace.start_time,
                          name=trace.name)

    def trace_batches(self, metric_name: str | None = None,
                      limit: int | None = None,
                      chunk_size: int = 1024,
                      offset: int = 0) -> Iterator[TraceBatch]:
        if (metric_name is not None
                and (metric_name, offset) in self.plan.crash_slices
                and multiprocessing.parent_process() is not None
                and self.plan.consume_crash(metric_name, offset)):
            # Simulate a worker falling over mid-batch: hard exit, no
            # cleanup, exactly once per slice -- the parent sees a
            # BrokenProcessPool and must resubmit.
            os._exit(13)
        return super().trace_batches(metric_name, limit=limit,
                                     chunk_size=chunk_size, offset=offset)


# ----------------------------------------------------------------------
# Dump fault injection
# ----------------------------------------------------------------------
def corrupt_dump_lines(src: Path | str, dst: Path | str, plan: FaultPlan) -> list[int]:
    """Copy a telemetry dump, mangling every Nth data line; return their numbers.

    Works on both raw-export shapes (gNMI JSON-lines and SNMP wide CSV):
    an affected line is replaced by a marker prefix plus the first half of
    the original, which neither ``json.loads`` nor the CSV row parser can
    digest.  The first line is never touched (for CSV it is the header the
    whole file hangs off).  Returns the 1-based line numbers mangled, in
    order -- the ground truth quarantine accounting is checked against.
    """
    src, dst = Path(src), Path(dst)
    mangled: list[int] = []
    with src.open() as reader, dst.open("w") as writer:
        for line_number, line in enumerate(reader, start=1):
            if line_number > 1 and plan.corrupts_line(line_number):
                body = line.rstrip("\n")
                writer.write(f"!corrupted! {body[:max(len(body) // 2, 1)]}\n")
                mangled.append(line_number)
            else:
                writer.write(line)
    return mangled
