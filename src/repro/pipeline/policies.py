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

Two execution paths share these semantics:

* :meth:`SamplingPolicy.collect` runs a policy over one reference
  :class:`~repro.signals.timeseries.TimeSeries` and returns a
  :class:`PolicyResult` with the collected samples, a reconstruction of
  the full-rate signal (the paper's low-pass interpolator) and
  bookkeeping for cost accounting -- the reference implementation, and
  the one event-detection scoring needs (it sees the collected stream).
* :meth:`SamplingPolicy.evaluate_batch` runs a policy over a whole
  ``(rows, n)`` matrix of equal-shape reference traces and returns
  columnar per-trace outcome arrays (:class:`PolicyBatchEvaluation`).
  Every built-in policy overrides it with a vectorised implementation:
  :class:`FixedRatePolicy` and :class:`NyquistStaticPolicy` use batched
  decimation, one ``estimate_batch`` call for the whole calibration
  matrix and one FFT pair for all reconstructions;
  :class:`AdaptiveDualRatePolicy` steps every row through the controller
  one window at a time
  (:meth:`~repro.core.adaptive.AdaptiveSamplingController.run_batch`),
  with each window's probes checked and estimated as matrices.  The
  row-loop default remains for custom policies and as the reference the
  overrides are tested against.  This is the feed of the fleet-scale
  policy survey (:func:`repro.analysis.policy_survey.run_policy_survey`).

:class:`PolicySuite` builds the paper's three-policy comparison for a
metric's production interval, so fleets whose metrics poll at different
rates can be evaluated with one configuration object.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.adaptive import AdaptiveRun, AdaptiveSamplingController, ControllerConfig
from ..core.errors import compare, compare_batch
from ..core.nyquist import NyquistEstimator
from ..core.reconstruction import reconstruct, reconstruct_batch
from ..core.resampling import decimation_factor, resample_to_rate
from ..signals.timeseries import TimeSeries

__all__ = ["PolicyResult", "PolicyBatchEvaluation", "SamplingPolicy", "FixedRatePolicy",
           "NyquistStaticPolicy", "AdaptiveDualRatePolicy", "PolicySuite",
           "StaticPolicySuite"]


@dataclass(frozen=True)
class PolicyResult:
    """What a sampling policy produced for one measurement point."""

    policy_name: str
    samples_collected: int
    collected: TimeSeries
    reconstructed: TimeSeries
    mean_sampling_rate: float
    detail: dict[str, float]

    @property
    def samples_per_hour(self) -> float:
        duration = self.reconstructed.duration
        if duration <= 0:
            return float("nan")
        return self.samples_collected / (duration / 3600.0)


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


class SamplingPolicy(abc.ABC):
    """Interface every sampling policy implements."""

    #: Human-readable policy name used in reports.
    name: str = "policy"

    def cache_token(self) -> str:
        """Canonical parameter string for content-addressed record caching.

        The default serialises every instance attribute in sorted order,
        which is exact for the built-in policies (their attributes are
        floats, strings and frozen dataclasses).  Policies holding
        attributes without deterministic reprs must override this.
        """
        fields = ", ".join(f"{key}={value!r}"
                           for key, value in sorted(vars(self).items()))
        return f"{type(self).__name__}({fields})"

    @abc.abstractmethod
    def collect(self, reference: TimeSeries) -> PolicyResult:
        """Collect samples from the underlying signal ``reference``.

        ``reference`` is a high-rate trace standing in for the continuous
        underlying metric; a policy may only *read* the samples it decides
        to collect, and its ``samples_collected`` must reflect every sample
        it read (including probe traffic).
        """

    def evaluate_batch(self, values: np.ndarray, interval: float) -> PolicyBatchEvaluation:
        """Run the policy over every row of a ``(rows, n)`` reference matrix.

        All rows share one sampling ``interval`` (group heterogeneous
        fleets with :meth:`~repro.telemetry.source.BaseTraceSource.trace_batches`).
        Returns columnar per-row outcomes: samples collected, achieved
        mean rate, and the reconstruction error against the reference.

        The default implementation loops :meth:`collect` row by row: it
        serves custom policies and is the reference the built-in
        policies' batched overrides reproduce without per-trace Python
        overhead.
        """
        if values.ndim != 2:
            raise ValueError(f"values must be a (rows, n) matrix, got shape {values.shape}")
        rows = values.shape[0]
        samples = np.zeros(rows, dtype=np.int64)
        mean_rate = np.zeros(rows)
        nrmse = np.zeros(rows)
        max_abs = np.zeros(rows)
        for index in range(rows):
            reference = TimeSeries(values[index], interval)
            outcome = self.collect(reference)
            error = compare(reference, outcome.reconstructed)
            samples[index] = outcome.samples_collected
            mean_rate[index] = outcome.mean_sampling_rate
            nrmse[index] = error.nrmse
            max_abs[index] = error.max_abs
        return PolicyBatchEvaluation(self.name, samples, mean_rate, nrmse, max_abs)

    # ------------------------------------------------------------------
    @staticmethod
    def _require_two_samples(name: str, reference: TimeSeries, collected: TimeSeries) -> None:
        if len(collected) < 2:
            # A policy that collected fewer than two samples has no signal
            # to reconstruct from; silently reporting a constant (formerly
            # 0.0 for an empty stream) produced a bogus-but-plausible
            # nrmse that skewed whole-fleet quality aggregates.
            raise ValueError(
                f"policy {name!r} collected only {len(collected)} sample(s) from "
                f"{reference.name or 'the reference trace'} "
                f"({len(reference)} samples over {reference.duration:g}s); "
                "at least 2 are needed to reconstruct")

    @staticmethod
    def _finish(name: str, reference: TimeSeries, collected: TimeSeries,
                samples_collected: int, detail: dict[str, float] | None = None) -> PolicyResult:
        """Shared epilogue: reconstruct at the reference rate and bundle the result."""
        SamplingPolicy._require_two_samples(name, reference, collected)
        reconstructed = reconstruct(collected, reference.sampling_rate)
        duration = reference.duration
        mean_rate = samples_collected / duration if duration > 0 else float("nan")
        return PolicyResult(
            policy_name=name,
            samples_collected=samples_collected,
            collected=collected,
            reconstructed=reconstructed,
            mean_sampling_rate=mean_rate,
            detail=dict(detail or {}),
        )


class FixedRatePolicy(SamplingPolicy):
    """Poll at a fixed rate -- the ad-hoc baseline of §3.1.

    Parameters
    ----------
    interval:
        Polling interval in seconds (e.g. the production default for the
        metric).
    """

    def __init__(self, interval: float, name: str | None = None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.name = name or f"fixed@{interval:g}s"

    def collect(self, reference: TimeSeries) -> PolicyResult:
        rate = min(1.0 / self.interval, reference.sampling_rate)
        collected = resample_to_rate(reference, rate, anti_alias=False)
        return self._finish(self.name, reference, collected, len(collected),
                            detail={"rate_hz": rate})

    def evaluate_batch(self, values: np.ndarray, interval: float) -> PolicyBatchEvaluation:
        """Vectorised path: one decimation + one batched FFT reconstruction.

        Every row polls at the same fixed rate, so the whole batch shares
        one decimation factor and one reconstruction shape -- the entire
        evaluation is three matrix operations.
        """
        if values.ndim != 2:
            raise ValueError(f"values must be a (rows, n) matrix, got shape {values.shape}")
        rows, n = values.shape
        reference_rate = 1.0 / interval
        rate = min(1.0 / self.interval, reference_rate)
        factor = decimation_factor(reference_rate, rate)
        collected = values[:, ::factor]
        m = collected.shape[1]
        if m < 2:
            raise ValueError(
                f"policy {self.name!r} collected only {m} sample(s) per trace "
                f"({n} reference samples at {interval:g}s); at least 2 are needed "
                "to reconstruct")
        reconstructed = reconstruct_batch(collected, interval * factor, reference_rate)
        nrmse, max_abs = compare_batch(values, reconstructed)
        duration = n * interval
        return PolicyBatchEvaluation(
            policy_name=self.name,
            samples_collected=np.full(rows, m, dtype=np.int64),
            mean_sampling_rate=np.full(rows, m / duration),
            nrmse=nrmse,
            max_abs_error=max_abs,
        )


class NyquistStaticPolicy(SamplingPolicy):
    """Calibrate once with the §3.2 estimator, then poll at the Nyquist rate.

    Parameters
    ----------
    production_interval:
        Interval used during the calibration prefix (today's rate).
    calibration_fraction:
        Fraction of the trace spent calibrating at the production rate.
    headroom:
        Multiplier (>= 1) applied to the estimated rate before polling.

    The calibration runs the survey-default :class:`NyquistEstimator`.
    """

    def __init__(self, production_interval: float, calibration_fraction: float = 0.25,
                 headroom: float = 1.2) -> None:
        if production_interval <= 0:
            raise ValueError("production_interval must be positive")
        if not 0 < calibration_fraction < 1:
            raise ValueError("calibration_fraction must be in (0, 1)")
        if headroom < 1:
            raise ValueError("headroom must be >= 1")
        self.production_interval = production_interval
        self.calibration_fraction = calibration_fraction
        self.headroom = headroom
        self.name = "nyquist-static"

    def collect(self, reference: TimeSeries) -> PolicyResult:
        production_rate = min(1.0 / self.production_interval, reference.sampling_rate)
        split_time = reference.start_time + reference.duration * self.calibration_fraction
        calibration_window = reference.window(reference.start_time, split_time)
        remainder_window = reference.window(split_time, reference.end_time)

        calibration = resample_to_rate(calibration_window, production_rate, anti_alias=False)
        estimate = NyquistEstimator().estimate(calibration) if len(calibration) >= 2 else None

        if estimate is not None and estimate.reliable:
            target_rate = min(estimate.nyquist_rate * self.headroom, production_rate)
        else:
            # Calibration could not produce a usable rate: fall back to the
            # production rate (no saving, no loss).
            target_rate = production_rate
        steady = resample_to_rate(remainder_window, target_rate, anti_alias=False) \
            if len(remainder_window) >= 2 else remainder_window

        # The calibration prefix and the steady-state suffix were collected
        # at different rates; merge them into one stream at the finest
        # common interval (the calibration interval) for reconstruction.
        if len(steady):
            repeat = max(int(round(steady.interval / calibration.interval)), 1)
            merged_values = np.concatenate([calibration.values,
                                            np.repeat(steady.values, repeat)])
        else:
            merged_values = calibration.values
        collected = TimeSeries(merged_values, calibration.interval,
                               start_time=reference.start_time, name=reference.name)

        samples = len(calibration) + len(steady)
        detail = {
            "calibration_samples": float(len(calibration)),
            "steady_samples": float(len(steady)),
            "target_rate_hz": float(target_rate),
            "nyquist_rate_hz": float(estimate.nyquist_rate) if estimate and estimate.reliable else float("nan"),
        }
        return self._finish(self.name, reference, collected, samples, detail)

    def evaluate_batch(self, values: np.ndarray, interval: float) -> PolicyBatchEvaluation:
        """Vectorised path: one ``estimate_batch`` calibration for the whole batch.

        The calibration prefix of every row is estimated with a single
        batched spectral call, rows are then grouped by their resulting
        steady-state decimation factor, and each group's merged
        calibration + steady stream is reconstructed with one batched FFT
        pair.  Numbers match :meth:`collect` row for row.
        """
        if values.ndim != 2:
            raise ValueError(f"values must be a (rows, n) matrix, got shape {values.shape}")
        rows, n = values.shape
        reference_rate = 1.0 / interval
        production_rate = min(1.0 / self.production_interval, reference_rate)
        duration = n * interval

        # Calibration prefix: same index arithmetic as TimeSeries.window on
        # a start_time-0 trace, then the same decimation resample_to_rate
        # would apply.
        cal_stop = min(max(int(np.ceil(duration * self.calibration_fraction / interval)),
                           0), n)
        factor_c = decimation_factor(reference_rate, production_rate)
        calibration = values[:, :cal_stop:factor_c]
        cal_m = calibration.shape[1]
        cal_interval = interval * factor_c

        nyquist = np.full(rows, np.nan)
        reliable = np.zeros(rows, dtype=bool)
        if cal_m >= 2:
            estimates = NyquistEstimator().estimate_batch(calibration, cal_interval)
            reliable = np.fromiter((e.reliable for e in estimates), bool, rows)
            nyquist = np.fromiter((e.nyquist_rate for e in estimates), np.float64, rows)
        target = np.where(reliable, np.minimum(nyquist * self.headroom, production_rate),
                          production_rate)

        remainder = values[:, cal_stop:]
        rem_m = remainder.shape[1]
        if rem_m >= 2:
            with np.errstate(divide="ignore"):
                raw = np.ceil(reference_rate / target - 1e-12)
            factor_s = np.where(target >= reference_rate, 1,
                                np.maximum(raw, 1)).astype(np.int64)
        else:
            # Too short to resample: the scalar path keeps the remainder
            # as-is at the reference interval.
            factor_s = np.ones(rows, dtype=np.int64)

        samples = np.zeros(rows, dtype=np.int64)
        nrmse = np.zeros(rows)
        max_abs = np.zeros(rows)
        for factor in np.unique(factor_s):
            group = np.nonzero(factor_s == factor)[0]
            steady = remainder[group, ::factor] if rem_m >= 2 else remainder[group]
            steady_interval = interval * factor if rem_m >= 2 else interval
            steady_m = steady.shape[1]
            if steady_m:
                repeat = max(int(round(steady_interval / cal_interval)), 1)
                merged = np.concatenate(
                    [calibration[group], np.repeat(steady, repeat, axis=1)], axis=1)
            else:
                merged = calibration[group]
            if merged.shape[1] < 2:
                raise ValueError(
                    f"policy {self.name!r} collected only {merged.shape[1]} sample(s) "
                    f"per trace ({n} reference samples at {interval:g}s); at least 2 "
                    "are needed to reconstruct")
            reconstructed = reconstruct_batch(merged, cal_interval, reference_rate)
            nrmse[group], max_abs[group] = compare_batch(values[group], reconstructed)
            samples[group] = cal_m + steady_m
        return PolicyBatchEvaluation(
            policy_name=self.name,
            samples_collected=samples,
            mean_sampling_rate=samples / duration,
            nrmse=nrmse,
            max_abs_error=max_abs,
        )


class AdaptiveDualRatePolicy(SamplingPolicy):
    """The §4 dynamic sampling controller wrapped as a policy.

    Parameters
    ----------
    window_duration:
        Adaptation window in seconds (the controller re-evaluates its rate
        once per window).
    config:
        Controller configuration; the initial rate defaults to the
        production rate divided by ``initial_backoff`` so the controller
        has to *earn* its way up via probing rather than starting from the
        over-sampled default.
    """

    def __init__(self, window_duration: float = 6 * 3600.0,
                 config: ControllerConfig | None = None) -> None:
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        self.window_duration = window_duration
        self.config = config or ControllerConfig()
        self.name = "adaptive-dual-rate"

    def run_controller(self, reference: TimeSeries) -> AdaptiveRun:
        """Run a fresh controller over ``reference`` and return the full record.

        This is the policy's underlying state-machine run, including the
        probe/settle :class:`~repro.core.adaptive.ModeTransition` stream
        (``run.transitions``) that re-probe latency after a regime shift
        is measured from.  :meth:`collect` uses exactly this run, so the
        transitions correspond sample-for-sample to the policy's cost.
        """
        return AdaptiveSamplingController(config=self.config).run(reference,
                                                                  self.window_duration)

    def evaluate_batch(self, values: np.ndarray, interval: float) -> PolicyBatchEvaluation:
        """Batch-synchronous path: all rows step through the controller together.

        One :meth:`~repro.core.adaptive.AdaptiveSamplingController.run_batch`
        runs the rows' controllers window by window (the same stepper
        :meth:`run_controller` uses with one row); rows whose collected
        streams share a length and interval are then reconstructed with
        one batched FFT pair.  Numbers match :meth:`collect` row for row,
        bit for bit.
        """
        if values.ndim != 2:
            raise ValueError(f"values must be a (rows, n) matrix, got shape {values.shape}")
        rows, n = values.shape
        runs = AdaptiveSamplingController(config=self.config).run_batch(
            values, interval, self.window_duration)
        reference_rate = 1.0 / interval
        groups: dict[tuple[int, float], list[int]] = {}
        collected: list[TimeSeries] = []
        for index, run in enumerate(runs):
            series = run.collected_series()
            self._require_two_samples(self.name, run.reference, series)
            collected.append(series)
            groups.setdefault((len(series), series.interval), []).append(index)
        nrmse = np.zeros(rows)
        max_abs = np.zeros(rows)
        for (_, collected_interval), members in groups.items():
            reconstructed = reconstruct_batch(
                np.vstack([collected[index].values for index in members]),
                collected_interval, reference_rate)
            nrmse[members], max_abs[members] = compare_batch(values[members], reconstructed)
        samples = np.fromiter((run.total_samples_collected for run in runs), np.int64, rows)
        return PolicyBatchEvaluation(
            policy_name=self.name,
            samples_collected=samples,
            mean_sampling_rate=samples / (n * interval),
            nrmse=nrmse,
            max_abs_error=max_abs,
        )

    def collect(self, reference: TimeSeries) -> PolicyResult:
        run: AdaptiveRun = self.run_controller(reference)
        collected = run.collected_series()
        samples = run.total_samples_collected
        rates = [decision.sampling_rate for decision in run.decisions]
        detail = {
            "windows": float(len(run.decisions)),
            "mean_rate_hz": float(np.mean(rates)) if rates else float("nan"),
            "max_rate_hz": float(np.max(rates)) if rates else float("nan"),
            "min_rate_hz": float(np.min(rates)) if rates else float("nan"),
            "aliased_windows": float(sum(decision.aliased for decision in run.decisions)),
        }
        return self._finish(self.name, reference, collected, samples, detail)


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
    calibration_fraction / headroom:
        Passed to :class:`NyquistStaticPolicy`.
    adaptive_window:
        Adaptation window of :class:`AdaptiveDualRatePolicy`, in seconds.
    adaptive_backoff:
        The adaptive controller starts probing at ``production_rate /
        adaptive_backoff`` so it has to earn its way up.
    adaptive_max_rate_factor:
        Rate ceiling of the adaptive controller, as a multiple of the
        production rate.  The default (1.0) holds the controller to
        today's polling rate: the cost comparison of the paper's title is
        about spending *less* than the fixed baseline, so a broadband
        (already-aliased) metric should cost at most what it costs today
        rather than ramping to the full reference rate.  Raise it to let
        the controller probe above production (the §4.1 aliasing hunt).
    """

    production_oversample: float = 1.0
    calibration_fraction: float = 0.25
    headroom: float = 1.2
    adaptive_window: float = 4 * 3600.0
    adaptive_backoff: float = 8.0
    adaptive_max_rate_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.production_oversample < 1:
            raise ValueError("production_oversample must be >= 1")
        if self.adaptive_window <= 0:
            raise ValueError("adaptive_window must be positive")
        if self.adaptive_backoff < 1:
            raise ValueError("adaptive_backoff must be >= 1")
        if self.adaptive_max_rate_factor <= 0:
            raise ValueError("adaptive_max_rate_factor must be positive")

    def build(self, reference_interval: float) -> list[SamplingPolicy]:
        """The three policies for traces sampled every ``reference_interval`` s."""
        if reference_interval <= 0:
            raise ValueError("reference_interval must be positive")
        production_interval = reference_interval * self.production_oversample
        production_rate = 1.0 / production_interval
        return [
            FixedRatePolicy(production_interval, name="fixed"),
            NyquistStaticPolicy(production_interval=production_interval,
                                calibration_fraction=self.calibration_fraction,
                                headroom=self.headroom),
            AdaptiveDualRatePolicy(
                window_duration=self.adaptive_window,
                config=ControllerConfig(
                    initial_rate=production_rate / self.adaptive_backoff,
                    max_rate=production_rate * self.adaptive_max_rate_factor,
                    headroom=self.headroom)),
        ]

    def cache_token(self) -> str:
        """Canonical parameter string for content-addressed record caching."""
        return repr(self)


@dataclass(frozen=True)
class StaticPolicySuite:
    """A fixed set of policies served for every metric, suite-style.

    Wraps an explicit policy list in the :class:`PolicySuite` interface so
    ``run_policy_survey`` can treat "the same policies everywhere" and
    "per-metric policies" uniformly.  The policies must be picklable for
    multi-worker runs (the built-in ones are).
    """

    policies: tuple[SamplingPolicy, ...]

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("need at least one policy")
        names = [policy.name for policy in self.policies]
        if len(set(names)) != len(names):
            raise ValueError("policy names must be unique")

    def build(self, reference_interval: float) -> list[SamplingPolicy]:
        return list(self.policies)

    def cache_token(self) -> str:
        """Canonical parameter string for content-addressed record caching.

        Composed from the per-policy tokens rather than ``repr(self)``:
        plain policy objects repr with memory addresses, which would make
        every run a cache miss.
        """
        tokens = ", ".join(policy.cache_token() for policy in self.policies)
        return f"{type(self).__name__}({tokens})"
