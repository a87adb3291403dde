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
and the collected streams, grouped by shared length and interval.  The
shared :meth:`SamplingPolicy.evaluate_batch` scores every group with one
:func:`~repro.core.reconstruction.reconstruction_error_batch` call: one
batched FFT pair (the paper's low-pass interpolator), scored against the
reference inside a reused scratch buffer, so no reconstruction or error
matrix is allocated per batch (:meth:`Collection.evaluate`).  It feeds
the fleet policy survey
(:func:`repro.analysis.policy_survey.run_policy_survey`).
The per-point :class:`~repro.analysis.policy_survey.CostQualityEvaluator`
scores a one-row collection the same way and hands its collected stream
to event-detection scoring.

:class:`PolicySuite` builds the paper's three-policy comparison for a
metric's production interval, so fleets whose metrics poll at different
rates can be evaluated with one configuration object.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.adaptive import AdaptiveRun, AdaptiveSamplingController, ControllerConfig
from ..core.nyquist import NyquistEstimator
from ..core.reconstruction import reconstruction_error_batch
from ..core.resampling import decimation_factor
from ..signals.timeseries import TimeSeries

__all__ = ["Collection", "PolicyBatchEvaluation", "SamplingPolicy", "FixedRatePolicy",
           "NyquistStaticPolicy", "AdaptiveDualRatePolicy", "PolicySuite",
           "StaticPolicySuite"]


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


@dataclass(frozen=True)
class Collection:
    """What one policy collected from every row of a ``(rows, n)`` reference matrix.

    ``samples_collected`` holds, per row, every sample the policy read,
    probe traffic included: the row's cost.  ``groups`` holds the
    collected streams of rows that share a length and an interval, as
    ``(rows, matrix, interval)``: the row indices (``slice(None)`` when
    the group is the whole batch, which spares copying the reference), the
    rows' ``(len(rows), m)`` collected samples and the seconds between
    two of them.  The matrix may be a view of the reference (a policy
    that keeps every sample collects ``values`` itself); scoring never
    writes to it.  A stream gathered at several rates is aligned to its
    finest interval (each coarser sample repeated to fill its slots), so
    every stream is one regular row that reconstruction can read.
    """

    samples_collected: np.ndarray
    groups: tuple[tuple[np.ndarray | slice, np.ndarray, float], ...]

    def evaluate(self, policy_name: str, values: np.ndarray,
                 interval: float) -> PolicyBatchEvaluation:
        """Reconstruct every group at the reference rate and score it against ``values``.

        ``values`` and ``interval`` are the reference matrix the
        collection was gathered from.  Each group is one
        :func:`~repro.core.reconstruction.reconstruction_error_batch`
        call, which reconstructs its rows with one batched FFT pair and
        scores them row by row in a scratch buffer; only the per-row
        ``nrmse`` and max-abs errors come back.  A stream of fewer than
        two samples has nothing to reconstruct from and raises rather
        than reporting a bogus-but-plausible error.
        """
        rows, n = values.shape
        nrmse = np.zeros(rows)
        max_abs = np.zeros(rows)
        for members, collected, collected_interval in self.groups:
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
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.name = name or f"fixed@{interval:g}s"

    def collect_batch(self, values: np.ndarray, interval: float) -> Collection:
        """Every row polls at the same rate: one decimation for the whole batch."""
        rows = values.shape[0]
        reference_rate = 1.0 / interval
        factor = decimation_factor(reference_rate, min(1.0 / self.interval, reference_rate))
        collected = values[:, ::factor]
        return Collection(np.full(rows, collected.shape[1], dtype=np.int64),
                          ((slice(None), collected, interval * factor),))


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

    def collect_batch(self, values: np.ndarray, interval: float) -> Collection:
        """One ``estimate_batch`` calibration for the whole batch.

        Every row polls its calibration prefix at the production rate and
        the prefixes are estimated with a single batched spectral call.
        Each row then polls the rest of its trace at its estimated rate
        (plus headroom), or stays at the production rate when the estimate
        is unreliable: no saving, no loss.  Rows are grouped by their
        steady-state decimation factor, and each group's calibration and
        steady samples are merged at the calibration interval.
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
            # Too short to resample: the remainder is kept as-is at the
            # reference interval.
            factor_s = np.ones(rows, dtype=np.int64)

        samples = np.zeros(rows, dtype=np.int64)
        groups = []
        for factor in np.unique(factor_s):
            group = np.nonzero(factor_s == factor)[0]
            steady = remainder[group, ::factor] if rem_m >= 2 else remainder[group]
            steady_interval = interval * factor if rem_m >= 2 else interval
            steady_m = steady.shape[1]
            if steady_m:
                # Merge the two rates at the finer calibration interval.
                repeat = max(int(round(steady_interval / cal_interval)), 1)
                merged = np.concatenate(
                    [calibration[group], np.repeat(steady, repeat, axis=1)], axis=1)
            else:
                merged = calibration[group]
            groups.append((group, merged, cal_interval))
            samples[group] = cal_m + steady_m
        return Collection(samples, tuple(groups))


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
        every sample its controller read, probes included, and rows whose
        collected streams share a length and interval form one group.
        """
        runs = AdaptiveSamplingController(config=self.config).run_batch(
            values, interval, self.window_duration)
        streams = [run.collected_series() for run in runs]
        members: dict[tuple[int, float], list[int]] = {}
        for index, series in enumerate(streams):
            members.setdefault((len(series), series.interval), []).append(index)
        groups = tuple((np.array(rows),
                        np.vstack([streams[index].values for index in rows]),
                        collected_interval)
                       for (_, collected_interval), rows in members.items())
        samples = np.fromiter((run.total_samples_collected for run in runs), np.int64,
                              len(runs))
        return Collection(samples, groups)


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
