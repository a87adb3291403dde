"""Deterministic scenario transforms: adversarial workloads as pure functions.

The policy survey so far validated the paper's cost ordering on stationary
synthetic traffic.  Real fleets are not stationary: load follows diurnal
cycles, incidents switch a metric's spectral regime in minutes, counters
wrap, devices reboot, and collectors lose sites for whole windows.  A
:class:`ScenarioTransform` models one such behaviour as a *pure function*
``values -> values`` of one reference trace -- seeded per (metric, device)
pair through :func:`repro.faults.stable_digest` from the one seed ``0``,
never the process-random builtin ``hash()`` -- so a scenario fleet
regenerates bit-identically in the parent and in every survey worker.

:class:`ScenarioTraceSource` applies a transform stack to any
:class:`~repro.telemetry.source.TraceSource` at ``load`` time, with a
picklable :class:`ScenarioSourceSpec` worker address and a content token
that folds the transform stack in (a cached record can never be served
across different scenarios).  Transforms preserve trace shape and
interval, so batch grouping, slice addressing and worker-count
byte-equivalence all carry over from the wrapped source unchanged.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from ..faults.plan import pair_kind, pair_rng, stable_digest
from ..signals.distortions import apply_data_fault, blackout_backfill, window_bounds
from ..signals.timeseries import TimeSeries
from ..telemetry.source import DelegatingTraceSource, TraceSource, WorkerSpec

__all__ = ["ScenarioTransform", "DiurnalCycle", "RegimeShift", "FlappingRegime",
           "CounterPathology", "BlackoutWindow", "Scenario", "ScenarioSourceSpec",
           "ScenarioTraceSource", "apply_transforms"]

_TWO_PI = 2.0 * math.pi

#: Root of every transform's per-pair digest (phases, pathology placement).
_SEED = 0

# The counter pathology: half the pairs suffer a counter wrap or a reboot
# window covering 15 % of the trace.
_PATHOLOGY_KINDS = ("counter-wrap", "device-reboot")
_PATHOLOGY_FRACTION = 0.5
_PATHOLOGY_WINDOW_FRACTION = 0.15


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Per-shape constants of the periodic transforms.  Everything below depends
# only on the transform's parameters and the trace's ``(rows, interval)``,
# so it is built once per shape and shared read-only; each is the exact
# expression ``apply`` used to evaluate per pair, so no result changes.
@lru_cache(maxsize=32)
def _diurnal_carrier(transform: "DiurnalCycle", rows: int, interval: float) -> np.ndarray:
    t = np.arange(rows) * interval
    return _read_only(_TWO_PI * t / transform.period)


@lru_cache(maxsize=32)
def _regime_carrier(transform: "RegimeShift", rows: int, interval: float) -> np.ndarray:
    shift = int(round(transform.shift_fraction * rows))
    frequency = transform.frequency_fraction / (2.0 * interval)
    t = np.arange(shift, rows) * interval
    return _read_only(_TWO_PI * frequency * t)


@lru_cache(maxsize=32)
def _flap_carrier_and_duty(transform: "FlappingRegime", rows: int,
                           interval: float) -> tuple[np.ndarray, np.ndarray]:
    onset = int(round(transform.onset_fraction * rows))
    frequency = transform.frequency_fraction / (2.0 * interval)
    t = np.arange(onset, rows) * interval
    active = ((t - onset * interval) % transform.period) < transform.duty * transform.period
    # A float 0/1 factor multiplies to the same bits as the bool mask.
    return _read_only(_TWO_PI * frequency * t), _read_only(active.astype(np.float64))


class ScenarioTransform(abc.ABC):
    """One deterministic workload behaviour applied to reference traces.

    Implementations are frozen dataclasses: hashable (worker source
    caching keys on the spec), picklable (specs cross process boundaries)
    and with a deterministic ``repr`` (content tokens embed it).

    ``apply`` must be pure -- same inputs, same output array -- must not
    mutate ``values``, and must preserve the trace's shape: the survey's
    equal-shape batching, slice addressing and worker-count
    byte-equivalence rely on transformed fleets keeping the wrapped
    fleet's geometry.
    """

    @abc.abstractmethod
    def apply(self, values: np.ndarray, interval: float, metric_name: str,
              device_id: str) -> np.ndarray:
        """Transformed copy of one pair's reference trace values."""


@dataclass(frozen=True)
class DiurnalCycle(ScenarioTransform):
    """Slow multiplicative load cycle: traffic follows the day.

    Modulates the trace by ``1 + amplitude * sin(2*pi*t/period + phase)``
    with a per-pair phase (sites peak at different local times).  The
    cycle is deliberately far below any catalogue metric's Nyquist rate:
    it changes levels, not bandwidth, so the paper ordering should
    survive it -- that is what the matrix checks.
    """

    period: float = 86400.0
    amplitude: float = 0.3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be a positive finite number, got {self.period}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")

    def apply(self, values: np.ndarray, interval: float, metric_name: str,
              device_id: str) -> np.ndarray:
        phase = _TWO_PI * (stable_digest(_SEED, "diurnal-phase", metric_name,
                                         device_id) / 2.0 ** 64)
        carrier = _diurnal_carrier(self, values.shape[0], interval)
        return values * (1.0 + self.amplitude * np.sin(carrier + phase))


@dataclass(frozen=True)
class RegimeShift(ScenarioTransform):
    """An incident switches the metric's spectral regime mid-trace.

    From ``shift_fraction`` of the trace onward, a high-frequency
    component at ``frequency_fraction`` of the reference Nyquist
    frequency is added, scaled to ``amplitude`` times the whole trace's
    standard deviation (per-pair phase).  Scaling by the full-trace
    spread (not the pre-shift prefix) keeps the incident's relative
    strength independent of where it lands -- an early shift over a
    slow-moving metric would otherwise be scaled by a near-zero prefix
    std and vanish.  Before the shift the signal is whatever the fleet
    generates; after it, the Nyquist rate jumps.

    This is the scenario that makes the adaptive controller's re-probe
    latency *measurable*: a controller settled on the pre-shift spectrum
    must detect aliasing, re-enter probe mode
    (:class:`~repro.core.adaptive.ModeTransition`) and ramp up -- and the
    dual-stream probing it pays for is exactly what can invert the
    adaptive-cheaper-than-static leg of the paper ordering.
    """

    shift_fraction: float = 0.55
    frequency_fraction: float = 0.5
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.shift_fraction < 1.0:
            raise ValueError("shift_fraction must be in (0, 1)")
        if not 0.0 < self.frequency_fraction <= 1.0:
            raise ValueError("frequency_fraction must be in (0, 1]")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be a positive finite number, "
                             f"got {self.amplitude}")

    def shift_time(self, duration: float) -> float:
        """Absolute time of the regime shift within a trace of ``duration`` s."""
        return self.shift_fraction * duration

    def apply(self, values: np.ndarray, interval: float, metric_name: str,
              device_id: str) -> np.ndarray:
        rows = values.shape[0]
        out = values.copy()
        shift = int(round(self.shift_fraction * rows))
        if shift >= rows:
            return out
        base = float(np.std(values)) if rows >= 2 else 0.0
        if not base > 0.0:
            base = 1.0
        phase = _TWO_PI * (stable_digest(_SEED, "regime-phase", metric_name,
                                         device_id) / 2.0 ** 64)
        carrier = _regime_carrier(self, rows, interval)
        out[shift:] += self.amplitude * base * np.sin(carrier + phase)
        return out


@dataclass(frozen=True)
class FlappingRegime(ScenarioTransform):
    """Recurring incidents: the high-frequency regime comes and goes.

    From ``onset_fraction`` of the trace onward, the
    :class:`RegimeShift`-style high-frequency component is only active
    during the first ``duty`` of every ``period``-second cycle -- a
    metric that keeps switching spectral regimes.  This is the adaptive
    controller's worst case: every flap forces a fresh
    aliasing-detect/probe/settle cycle (dual-stream probing each time),
    while a Nyquist-static policy whose calibration prefix ended before
    the onset keeps polling at its one cheap settled rate and simply eats
    the reconstruction error.  Cells built on this scenario are where the
    paper's adaptive-cheapest leg is *expected* to invert.

    The carrier ``2*pi*f*t`` and the duty factor (1.0 inside a flap, 0.0
    outside) depend only on the trace's ``(rows, interval)``, so they are
    built once per shape and shared; per pair only the spread, the phase
    digest and ``sin(carrier + phase)`` are computed.
    """

    onset_fraction: float = 0.3
    period: float = 4 * 3600.0
    duty: float = 0.5
    frequency_fraction: float = 0.8
    amplitude: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.onset_fraction < 1.0:
            raise ValueError("onset_fraction must be in (0, 1)")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be a positive finite number, got {self.period}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must be in (0, 1)")
        if not 0.0 < self.frequency_fraction <= 1.0:
            raise ValueError("frequency_fraction must be in (0, 1]")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be a positive finite number, "
                             f"got {self.amplitude}")

    def shift_time(self, duration: float) -> float:
        """Absolute time of the first flap within a trace of ``duration`` s."""
        return self.onset_fraction * duration

    def apply(self, values: np.ndarray, interval: float, metric_name: str,
              device_id: str) -> np.ndarray:
        rows = values.shape[0]
        out = values.copy()
        onset = int(round(self.onset_fraction * rows))
        if onset >= rows:
            return out
        base = float(np.std(values)) if rows >= 2 else 0.0
        if not base > 0.0:
            base = 1.0
        phase = _TWO_PI * (stable_digest(_SEED, "flap-phase", metric_name,
                                         device_id) / 2.0 ** 64)
        carrier, duty = _flap_carrier_and_duty(self, rows, interval)
        out[onset:] += self.amplitude * base * np.sin(carrier + phase) * duty
        return out


@dataclass(frozen=True)
class CounterPathology(ScenarioTransform):
    """Counter wraps and device reboots as workload semantics, not chaos.

    Promotes the :data:`~repro.faults.DATA_FAULT_KINDS` distortions into a
    supported scenario: half the pairs (chosen by the same sha256 digest
    rule as :class:`~repro.faults.FaultPlan`, so assignment is
    process-independent) suffer a counter wrap or a reboot window over
    15 % of the trace, with the canonical seeded placement of
    :func:`repro.signals.distortions.apply_data_fault`.
    """

    def kind_for(self, metric_name: str, device_id: str) -> str | None:
        """The pathology this pair suffers, or ``None`` (FaultPlan's :func:`pair_kind` rule)."""
        return pair_kind(_SEED, _PATHOLOGY_FRACTION, _PATHOLOGY_KINDS, metric_name,
                         device_id)

    def apply(self, values: np.ndarray, interval: float, metric_name: str,
              device_id: str) -> np.ndarray:
        kind = self.kind_for(metric_name, device_id)
        if kind is None:
            return values.copy()
        return apply_data_fault(kind, values, pair_rng(_SEED, metric_name, device_id),
                                window_fraction=_PATHOLOGY_WINDOW_FRACTION)


@dataclass(frozen=True)
class BlackoutWindow(ScenarioTransform):
    """A partition window backfilled late with the last pre-gap value.

    Every pair loses the *same* fractional window (a site-wide partition,
    not a per-device hiccup): samples in ``[start_fraction, start_fraction
    + duration_fraction)`` of the trace are flattened to the last value
    seen before the gap.  The arrival-order half of the story -- those
    samples reaching ingest late and out of order -- is not modelled by
    the library: the importer's output depends only on the update set,
    and the scenario tests pin that with dumps whose blackout-window
    updates arrive last.
    """

    start_fraction: float = 0.5
    duration_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < 1.0:
            raise ValueError("start_fraction must be in [0, 1)")
        if not 0.0 < self.duration_fraction < 1.0:
            raise ValueError("duration_fraction must be in (0, 1)")
        if self.start_fraction + self.duration_fraction > 1.0:
            raise ValueError("the blackout window must end within the trace")

    def bounds(self, rows: int) -> tuple[int, int]:
        """``[start, stop)`` sample indices of the window in a ``rows``-long trace."""
        start = int(self.start_fraction * rows)
        width = max(1, int(self.duration_fraction * rows))
        return window_bounds(rows, start, width)

    def apply(self, values: np.ndarray, interval: float, metric_name: str,
              device_id: str) -> np.ndarray:
        start, stop = self.bounds(values.shape[0])
        return blackout_backfill(values, start, stop - start)


def apply_transforms(transforms: Sequence[ScenarioTransform], values: np.ndarray,
                     interval: float, metric_name: str, device_id: str) -> np.ndarray:
    """Apply a transform stack in order; validates shape preservation."""
    out = values
    for transform in transforms:
        transformed = transform.apply(out, interval, metric_name, device_id)
        if transformed.shape != values.shape:
            raise ValueError(
                f"scenario transform {transform!r} changed the trace shape "
                f"({values.shape} -> {transformed.shape}) for "
                f"{metric_name}@{device_id}; transforms must preserve geometry")
        out = transformed
    return out


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A named, ordered stack of transforms -- one row of the matrix.

    ``name`` keys the scenario in ``BENCH_scenarios.json`` cells and the
    golden summaries; the empty stack is the stationary baseline.
    """

    name: str
    transforms: tuple[ScenarioTransform, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")

    def shift_time(self, duration: float) -> float | None:
        """When this scenario's first regime change happens (None: no shift)."""
        for transform in self.transforms:
            if isinstance(transform, (RegimeShift, FlappingRegime)):
                return transform.shift_time(duration)
        return None

    def wrap(self, source: TraceSource) -> "ScenarioTraceSource":
        """Serve ``source`` with this scenario's transforms applied."""
        return ScenarioTraceSource(source, self.transforms)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSourceSpec:
    """Picklable worker address of a scenario-transformed source.

    Wraps the inner source's spec plus the transform stack; pool workers
    re-open the same scenario because transforms are pure and seeded by
    digest, never by process state.
    """

    inner: WorkerSpec
    transforms: tuple[ScenarioTransform, ...]

    def open(self) -> "ScenarioTraceSource":
        return ScenarioTraceSource(self.inner.open(), self.transforms)


class ScenarioTraceSource(DelegatingTraceSource):
    """A :class:`TraceSource` decorator applying a scenario transform stack.

    Pair tables, metric order, durations and trace shapes are the inner
    source's; only the trace *values* change, at ``load`` time.  The
    content token folds the transform stack into the inner token, so a
    :class:`~repro.records.RecordStore` never serves one scenario's cached
    records to another.
    """

    def __init__(self, inner: TraceSource,
                 transforms: Sequence[ScenarioTransform]) -> None:
        super().__init__(inner)
        self.transforms = tuple(transforms)

    def worker_spec(self) -> ScenarioSourceSpec:
        return ScenarioSourceSpec(self.inner.worker_spec(), self.transforms)

    def _token_part(self) -> str:
        return f"scenario={self.transforms!r}"

    # ------------------------- transformation -------------------------
    def load(self, pair: Any) -> TimeSeries:
        trace = self.inner.load(pair)
        if not self.transforms:
            return trace
        metric_name, device_id = pair.key
        values = apply_transforms(self.transforms, trace.values, trace.interval,
                                  metric_name, device_id)
        return TimeSeries(values, trace.interval, start_time=trace.start_time,
                          name=trace.name)
