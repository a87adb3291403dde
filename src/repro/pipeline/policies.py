"""Sampling policies: today's fixed-rate polling and the paper's alternatives.

A policy decides which samples of the underlying signal a monitoring system
actually collects.  Three policies are provided:

* :class:`FixedRatePolicy` -- poll at a fixed, ad-hoc rate.  This is
  "today's system" (§3.1): the rate is whatever the operator configured.
* :class:`NyquistStaticPolicy` -- spend a calibration prefix measuring at
  the production rate, estimate the Nyquist rate with the §3.2 method once,
  then poll at that rate (plus headroom) for the rest of the trace.
* :class:`AdaptiveDualRatePolicy` -- the §4 dynamic controller: probe with
  dual-frequency sampling, detect aliasing, settle at the Nyquist rate and
  keep adapting.

Each policy implements one method, :meth:`SamplingPolicy.collect_batch`:
from a ``(rows, n)`` matrix of equal-shape reference traces it returns a
:class:`Collection` -- every row's sample count (probe traffic included)
and the reference samples in its stream as ``(start, stop, stride)``
runs: one for fixed-rate polling, a calibration and a steady run for
Nyquist-static, one per controller window for adaptive.  The shared
:meth:`SamplingPolicy.evaluate_batch` reconstructs and scores every group
of equal-shape streams (:meth:`Collection.streams`) with one batched FFT
pair (:meth:`Collection.evaluate`).  It feeds the fleet policy survey
(:func:`repro.analysis.policy_survey.run_policy_survey`).
The per-point :class:`~repro.analysis.policy_survey.CostQualityEvaluator`
scores a one-row collection the same way and hands its laid-out stream
to event-detection scoring.

:class:`PolicySuite` builds the paper's three-policy comparison for a
metric's production interval, so fleets whose metrics poll at different
rates can be evaluated with one configuration object.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..core.adaptive import (DEFAULT_HEADROOM, AdaptiveRun, AdaptiveSamplingController,
                             ControllerConfig)
from ..core.nyquist import NyquistEstimator
from ..core.reconstruction import reconstruction_error_batch
from ..core.resampling import decimation_factor
from ..signals.timeseries import TimeSeries

__all__ = ["Collection", "PolicyBatchEvaluation", "SamplingPolicy", "FixedRatePolicy",
           "NyquistStaticPolicy", "AdaptiveDualRatePolicy", "PolicySuite"]

#: The suite's adaptive controller starts probing at ``production_rate /
#: _ADAPTIVE_BACKOFF``, so it has to earn its way up.
_ADAPTIVE_BACKOFF: float = 8.0


def _require_positive(name: str, value: float) -> None:
    """Raise unless ``value`` is a positive finite number (NaN and inf included)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value}")


@dataclass(frozen=True)
class PolicyBatchEvaluation:
    """Columnar outcome of one policy over a batch of reference traces.

    One entry per row of the evaluated ``(rows, n)`` matrix, in row
    order.  This is the per-point record the fleet policy survey stores;
    the reconstruction itself is never materialised outside the batch
    call (only its error against the reference is).
    """

    policy_name: str
    samples_collected: np.ndarray
    mean_sampling_rate: np.ndarray
    nrmse: np.ndarray
    max_abs_error: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples_collected",
                           np.asarray(self.samples_collected, dtype=np.int64))
        for column in ("mean_sampling_rate", "nrmse", "max_abs_error"):
            object.__setattr__(self, column,
                               np.asarray(getattr(self, column), dtype=np.float64))
        rows = self.samples_collected.shape[0]
        for column in ("mean_sampling_rate", "nrmse", "max_abs_error"):
            if getattr(self, column).shape != (rows,):
                raise ValueError(f"column {column!r} must be 1-D with {rows} rows")

    def __len__(self) -> int:
        return int(self.samples_collected.shape[0])


def _lay_out(values: np.ndarray, members: np.ndarray | slice,
             runs: tuple[tuple[int, int, int], ...], interval: float) -> tuple[np.ndarray, float]:
    """Rows ``members`` sharing ``runs``, laid out by :class:`Collection`'s rule."""
    runs = tuple(run for run in runs if run[1] > run[0])
    stream_interval = interval * min((stride for _, _, stride in runs), default=1)
    pieces = []
    for start, stop, stride in runs:
        piece = values[members, start:stop:stride]
        repeat = max(int(round((interval * stride) / stream_interval)), 1)
        pieces.append(piece if repeat == 1 else np.repeat(piece, repeat, axis=1))
    if len(pieces) == 1:
        return pieces[0], stream_interval
    return np.concatenate(pieces or [values[members, :0]], axis=1), stream_interval


@dataclass(frozen=True)
class Collection:
    """What one policy collected from every row of a ``(rows, n)`` reference matrix.

    ``samples_collected`` holds, per row, every sample the policy read,
    probe traffic included: the row's cost.  ``runs`` lists, per row and
    in time order, the reference samples in its stream: run ``(start,
    stop, stride)`` reads ``values[row, start:stop:stride]`` (probe
    samples that only fed a decision are paid for, not listed).  A row
    is laid out as one regular stream on its grid, the finest stride
    among its non-empty runs: each run's samples are repeated
    ``max(int(round((interval * stride) / (interval * grid))), 1)`` times
    and the stream is sampled every ``interval * grid`` seconds.
    """

    samples_collected: np.ndarray
    runs: tuple[tuple[tuple[int, int, int], ...], ...]

    def streams(self, values: np.ndarray,
                interval: float) -> Iterator[tuple[np.ndarray | slice, np.ndarray, float]]:
        """Every row's stream laid out on reference ``values``, grouped by length and interval.

        Yields ``(members, matrix, stream_interval)``: the rows
        (``slice(None)`` when the group holds every row), their streams
        and the seconds between two samples.  A one-run matrix is a view
        of ``values``; callers must not write to it.
        """
        layouts: dict[tuple, list[int]] = {}
        for row, runs in enumerate(self.runs):
            layouts.setdefault(runs, []).append(row)
        groups: dict[tuple[int, float], list[tuple[np.ndarray | slice, np.ndarray]]] = {}
        for runs, rows in layouts.items():
            members = slice(None) if len(rows) == len(self.runs) else np.array(rows)
            matrix, stream_interval = _lay_out(values, members, runs, interval)
            groups.setdefault((matrix.shape[1], stream_interval), []).append((members, matrix))
        for (_, stream_interval), parts in groups.items():
            if len(parts) == 1:
                (members, matrix), = parts
            else:
                members = np.concatenate([rows for rows, _ in parts])
                matrix = np.concatenate([matrix for _, matrix in parts])
                if members.size == len(self.runs):
                    matrix, members = matrix[np.argsort(members)], slice(None)
            yield members, matrix, stream_interval

    def evaluate(self, policy_name: str, values: np.ndarray,
                 interval: float) -> PolicyBatchEvaluation:
        """Reconstruct every group at the reference rate and score it against ``values``.

        ``values`` and ``interval`` are the reference matrix the
        collection was gathered from; :meth:`score` scores its
        :meth:`streams`.
        """
        return self.score(policy_name, values, interval, self.streams(values, interval))

    def score(self, policy_name: str, values: np.ndarray, interval: float,
              streams: Iterable[tuple[np.ndarray | slice, np.ndarray, float]],
              ) -> PolicyBatchEvaluation:
        """Score ``streams``, this collection's :meth:`streams` of ``values``.

        Each group is one
        :func:`~repro.core.reconstruction.reconstruction_error_batch`
        call: one batched FFT pair (the paper's low-pass interpolator),
        scored row by row in a reused scratch buffer, so no reconstruction
        or error matrix is allocated.  A stream of fewer than two samples
        has nothing to reconstruct from and raises rather than reporting
        a bogus-but-plausible error.
        """
        rows, n = values.shape
        nrmse = np.zeros(rows)
        max_abs = np.zeros(rows)
        for members, collected, collected_interval in streams:
            if collected.shape[1] < 2:
                raise ValueError(
                    f"policy {policy_name!r} collected only {collected.shape[1]} sample(s) "
                    f"per trace ({n} reference samples at {interval:g}s); at least 2 "
                    "are needed to reconstruct")
            nrmse[members], max_abs[members] = reconstruction_error_batch(
                values[members], collected, collected_interval, interval)
        return PolicyBatchEvaluation(
            policy_name=policy_name,
            samples_collected=self.samples_collected,
            mean_sampling_rate=self.samples_collected / (n * interval),
            nrmse=nrmse,
            max_abs_error=max_abs,
        )


class SamplingPolicy(abc.ABC):
    """Interface every sampling policy implements."""

    #: Human-readable policy name used in reports.
    name: str = "policy"

    @abc.abstractmethod
    def collect_batch(self, values: np.ndarray, interval: float) -> Collection:
        """Collect samples from every row of a ``(rows, n)`` reference matrix.

        Each row is a high-rate trace, sampled every ``interval`` seconds
        from time 0, standing in for the continuous underlying metric.  A
        policy may only *read* the samples it decides to collect, and its
        ``samples_collected`` must count every sample it read (including
        probe traffic).
        """

    def evaluate_batch(self, values: np.ndarray, interval: float) -> PolicyBatchEvaluation:
        """Run the policy over every row of a ``(rows, n)`` reference matrix.

        All rows share one sampling ``interval`` (group heterogeneous
        fleets with :meth:`~repro.telemetry.source.BaseTraceSource.trace_batches`).
        Returns columnar per-row outcomes: samples collected, achieved
        mean rate, and the reconstruction error against the reference.
        """
        if values.ndim != 2:
            raise ValueError(f"values must be a (rows, n) matrix, got shape {values.shape}")
        return self.collect_batch(values, interval).evaluate(self.name, values, interval)


class FixedRatePolicy(SamplingPolicy):
    """Poll at a fixed rate -- the ad-hoc baseline of §3.1.

    Parameters
    ----------
    interval:
        Polling interval in seconds (e.g. the production default for the
        metric).
    """

    def __init__(self, interval: float, name: str | None = None) -> None:
        _require_positive("interval", interval)
        self.interval = interval
        self.name = name or f"fixed@{interval:g}s"

    def collect_batch(self, values: np.ndarray, interval: float) -> Collection:
        """Every row polls at the same rate: one decimation for the whole batch."""
        rows, n = values.shape
        reference_rate = 1.0 / interval
        factor = decimation_factor(reference_rate, min(1.0 / self.interval, reference_rate))
        return Collection(np.full(rows, len(range(0, n, factor)), dtype=np.int64),
                          (((0, n, factor),),) * rows)


class NyquistStaticPolicy(SamplingPolicy):
    """Calibrate once with the §3.2 estimator, then poll at the Nyquist rate.

    Parameters
    ----------
    production_interval:
        Interval used during the calibration prefix (today's rate).
    calibration_fraction:
        Fraction of the trace spent calibrating at the production rate.

    The calibration runs the survey-default :class:`NyquistEstimator`, and
    the estimated rate is polled with
    :data:`~repro.core.adaptive.DEFAULT_HEADROOM`.
    """

    def __init__(self, production_interval: float,
                 calibration_fraction: float = 0.25) -> None:
        _require_positive("production_interval", production_interval)
        if not 0 < calibration_fraction < 1:
            raise ValueError("calibration_fraction must be in (0, 1)")
        self.production_interval = production_interval
        self.calibration_fraction = calibration_fraction
        self.name = "nyquist-static"

    def collect_batch(self, values: np.ndarray, interval: float) -> Collection:
        """One ``estimate_batch`` calibration for the whole batch.

        Every row polls its calibration prefix at the production rate and
        the prefixes are estimated with a single batched spectral call.
        Each row then polls the rest of its trace at its estimated rate
        (plus headroom), or stays at the production rate when the estimate
        is unreliable: no saving, no loss.  A remainder under two samples
        is read at the calibration stride (its one sample, or none).
        """
        rows, n = values.shape
        reference_rate = 1.0 / interval
        production_rate = min(1.0 / self.production_interval, reference_rate)
        duration = n * interval

        # Calibration prefix: the samples before duration * fraction,
        # polled at the production rate.
        cal_stop = min(max(int(np.ceil(duration * self.calibration_fraction / interval)),
                           0), n)
        factor_c = decimation_factor(reference_rate, production_rate)
        calibration = values[:, :cal_stop:factor_c]
        cal_m = calibration.shape[1]

        nyquist = np.full(rows, np.nan)
        reliable = np.zeros(rows, dtype=bool)
        if cal_m >= 2:
            estimates = NyquistEstimator().estimate_batch(calibration, interval * factor_c)
            reliable = np.fromiter((e.reliable for e in estimates), bool, rows)
            nyquist = np.fromiter((e.nyquist_rate for e in estimates), np.float64, rows)
        target = np.where(reliable, np.minimum(nyquist * DEFAULT_HEADROOM, production_rate),
                          production_rate)

        rem_m = n - cal_stop
        if rem_m >= 2:
            with np.errstate(divide="ignore"):
                raw = np.ceil(reference_rate / target - 1e-12)
            factor_s = np.where(target >= reference_rate, 1,
                                np.maximum(raw, 1)).astype(np.int64)
        else:
            factor_s = np.full(rows, factor_c, dtype=np.int64)
        steady_m = -(-rem_m // factor_s)  # ceil(rem_m / factor_s)
        return Collection(cal_m + steady_m,
                          tuple(((0, cal_stop, factor_c), (cal_stop, n, factor))
                                for factor in factor_s.tolist()))


class AdaptiveDualRatePolicy(SamplingPolicy):
    """The §4 dynamic sampling controller wrapped as a policy.

    Parameters
    ----------
    window_duration:
        Adaptation window in seconds (the controller re-evaluates its rate
        once per window).
    config:
        Controller configuration (:class:`ControllerConfig` defaults when
        omitted).  :class:`PolicySuite` starts the controller eight times
        below the production rate so it has to *earn* its way up via
        probing rather than starting from the over-sampled default.
    """

    def __init__(self, window_duration: float = 6 * 3600.0,
                 config: ControllerConfig | None = None) -> None:
        _require_positive("window_duration", window_duration)
        self.window_duration = window_duration
        self.config = config or ControllerConfig()
        self.name = "adaptive-dual-rate"

    def run_controller(self, reference: TimeSeries) -> AdaptiveRun:
        """Run a fresh controller over ``reference`` and return the full record.

        This is the policy's underlying state-machine run, including the
        probe/settle :class:`~repro.core.adaptive.ModeTransition` stream
        (``run.transitions``) that re-probe latency after a regime shift
        is measured from.  It is the one-row case of the run
        :meth:`collect_batch` makes, so the transitions correspond
        sample-for-sample to the policy's cost.
        """
        return AdaptiveSamplingController(config=self.config).run(reference,
                                                                  self.window_duration)

    def collect_batch(self, values: np.ndarray, interval: float) -> Collection:
        """Batch-synchronous collection: all rows step through the controller together.

        One :meth:`~repro.core.adaptive.AdaptiveSamplingController.run_batch`
        runs the rows' controllers window by window (the same stepper
        :meth:`run_controller` uses with one row); each row's cost is
        every sample its controller read, probes included, and its runs
        are the run's per-window ``segments``.
        """
        runs = AdaptiveSamplingController(config=self.config).run_batch(
            values, interval, self.window_duration)
        samples = np.fromiter((run.total_samples_collected for run in runs), np.int64,
                              len(runs))
        return Collection(samples, tuple(tuple(run.segments) for run in runs))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicySuite:
    """Builds the paper's three-policy comparison for one reference interval.

    Fleet surveys evaluate metrics whose production polling rates differ
    (Link util every 30 s, Temperature every 300 s, ...), so the policies
    themselves must be derived per metric rather than fixed up front.  A
    suite is a small picklable recipe the policy survey ships to its
    worker processes: given the interval of a reference trace batch it
    instantiates the fixed-rate baseline, the Nyquist-static policy and
    the adaptive dual-rate controller with rates expressed relative to
    the metric's production rate.

    Attributes
    ----------
    production_oversample:
        How much faster the reference traces are sampled than production
        polls (the ``oversample_factor`` the trace source was built with).
        1.0 means the traces *are* the production stream -- the right
        setting for measured fleets recorded at today's rates.
    calibration_fraction:
        Passed to :class:`NyquistStaticPolicy`, which checks it when
        :meth:`build` makes the policy.
    adaptive_window:
        Adaptation window of :class:`AdaptiveDualRatePolicy`, in seconds.

    Both rate-setting policies settle with
    :data:`~repro.core.adaptive.DEFAULT_HEADROOM`; the adaptive controller
    starts at an eighth of the production rate and is capped at the
    production rate: the cost comparison of the paper's title is about
    spending *less* than the fixed baseline, so a broadband (already
    aliased) metric costs at most what it costs today rather than ramping
    to the full reference rate.
    """

    production_oversample: float = 1.0
    calibration_fraction: float = 0.25
    adaptive_window: float = 4 * 3600.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.production_oversample) and self.production_oversample >= 1):
            raise ValueError("production_oversample must be a finite number >= 1, "
                             f"got {self.production_oversample}")
        _require_positive("adaptive_window", self.adaptive_window)

    def build(self, reference_interval: float) -> list[SamplingPolicy]:
        """The three policies for traces sampled every ``reference_interval`` s."""
        if reference_interval <= 0:
            raise ValueError("reference_interval must be positive")
        production_interval = reference_interval * self.production_oversample
        production_rate = 1.0 / production_interval
        return [
            FixedRatePolicy(production_interval, name="fixed"),
            NyquistStaticPolicy(production_interval=production_interval,
                                calibration_fraction=self.calibration_fraction),
            AdaptiveDualRatePolicy(
                window_duration=self.adaptive_window,
                config=ControllerConfig(initial_rate=production_rate / _ADAPTIVE_BACKOFF,
                                        max_rate=production_rate)),
        ]

    def cache_token(self) -> str:
        """Canonical parameter string for content-addressed record caching.

        It still names the retired ``headroom``, ``adaptive_backoff`` and
        ``adaptive_max_rate_factor`` fields with their fixed values, so
        record stores filled before they became constants keep hitting.
        """
        return (f"PolicySuite(production_oversample={self.production_oversample!r}, "
                f"calibration_fraction={self.calibration_fraction!r}, "
                f"headroom={DEFAULT_HEADROOM!r}, adaptive_window={self.adaptive_window!r}, "
                f"adaptive_backoff={_ADAPTIVE_BACKOFF!r}, adaptive_max_rate_factor=1.0)")
