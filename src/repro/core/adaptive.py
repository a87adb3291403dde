"""Dynamic (adaptive) sampling controller (Section 4.2).

The strawman the paper proposes:

* Initially the Nyquist rate of the signal is unknown, so the controller is
  in **probe** mode: it samples at two rates (the dual-frequency trick of
  §4.1) and, while aliasing is detected, multiplicatively increases the
  rate.
* Once aliasing is no longer detected it estimates the Nyquist rate with
  the §3.2 method and settles in **steady** mode at that rate (plus a
  configurable headroom).
* If the signal quiets down, the controller adaptively decreases the rate;
  if aliasing re-appears it ramps back up, using a *memory* of previously
  observed maxima to re-ramp quickly ("we can even 'remember' previous
  maximum Nyquist rates to ramp up more quickly in the future").

The controller operates on successive time windows of the underlying
signal.  In the library the "underlying signal" is a high-rate reference
trace (either synthetic telemetry or an over-sampled production-style
trace); the controller only ever *reads* the samples it would actually
have collected at its chosen probe rates, so its cost accounting reflects a
real deployment.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..signals.timeseries import TimeSeries
from .aliasing import DualRateAliasingDetector
from .nyquist import MIN_SAMPLES, NyquistEstimate, NyquistEstimator
from .resampling import decimation_factor

__all__ = [
    "MIN_RATE",
    "DEFAULT_HEADROOM",
    "ControllerMode",
    "ControllerConfig",
    "WindowDecision",
    "ModeTransition",
    "AdaptiveRun",
    "AdaptiveSamplingController",
]


class ControllerMode(enum.Enum):
    """Operating mode of the adaptive controller."""

    PROBE = "probe"
    STEADY = "steady"


#: Hard floor (Hz) on the rate the controller may choose: one sample a day.
MIN_RATE: float = 1.0 / 86400.0

#: Safety margin the controller applies to an estimated Nyquist rate when
#: settling unless configured otherwise (§4.2 "maintaining ample headroom
#: may be helpful"); the Nyquist-static policy polls with it too.
DEFAULT_HEADROOM: float = 1.2

#: Multiplicative decrease applied in steady mode when the estimated
#: Nyquist rate falls well below the current rate.
_DECREASE_FACTOR: float = 0.5

#: Per-window decay applied to the remembered maximum Nyquist rate (§4.2
#: "remember previous maximum Nyquist rates to ramp up more quickly").
_MEMORY_DECAY: float = 0.9


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs of the adaptive controller (paper-guided defaults).

    The rest of the §4.2 guidance is fixed: the rate floor
    (:data:`MIN_RATE`), the steady-mode halving of the rate, the 0.9
    per-window decay of the remembered maxima, and the default dual-rate
    detector and energy cut-off.

    Attributes
    ----------
    initial_rate:
        Sampling rate (Hz) the controller starts probing at.
    max_rate:
        Hard upper bound on the rate the controller may choose.  It
        defaults to infinity and is clamped to the reference trace's rate
        at run time (you cannot sample faster than the signal exists).
    probe_multiplier:
        Multiplicative increase applied while aliasing persists (§4.2
        "multiplicatively increase the measurement rate").
    headroom:
        Safety margin (>= 1) applied to the estimated Nyquist rate when
        settling ("maintaining ample headroom may be helpful").
    aliasing_check_interval:
        In steady mode, run the (costly) dual-frequency aliasing check only
        every this many windows; in between, only the primary stream is
        collected and aliasing suspicion comes from the estimator itself.
        §4.1 notes the dual stream "roughly doubles measurement cost", so
        checking periodically rather than continuously is how a deployment
        keeps the net saving.  Set to 1 to check every window.
    """

    initial_rate: float = 1.0 / 300.0
    max_rate: float = math.inf
    probe_multiplier: float = 2.0
    headroom: float = DEFAULT_HEADROOM
    aliasing_check_interval: int = 4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.initial_rate) and self.initial_rate > 0):
            raise ValueError("initial_rate must be a positive finite number, "
                             f"got {self.initial_rate}")
        # +inf is the documented "no cap" default; NaN would never cap.
        if not self.max_rate > MIN_RATE:
            raise ValueError(f"max_rate must exceed the rate floor {MIN_RATE:g} Hz, "
                             f"got {self.max_rate}")
        if not (math.isfinite(self.probe_multiplier) and self.probe_multiplier > 1):
            raise ValueError("probe_multiplier must be a finite number > 1, "
                             f"got {self.probe_multiplier}")
        if not (math.isfinite(self.headroom) and self.headroom >= 1):
            raise ValueError(f"headroom must be a finite number >= 1, got {self.headroom}")
        # NaN or inf would silently stop every steady-mode aliasing check.
        if not (math.isfinite(self.aliasing_check_interval)
                and self.aliasing_check_interval >= 1):
            raise ValueError("aliasing_check_interval must be a finite number >= 1, "
                             f"got {self.aliasing_check_interval}")


@dataclass(frozen=True)
class WindowDecision:
    """What the controller did for one time window, sampled in ``mode``."""

    window_start: float
    window_end: float
    mode: ControllerMode
    sampling_rate: float
    samples_collected: int
    aliased: bool
    aliasing_discrepancy: float
    nyquist_estimate: float
    next_rate: float


@dataclass(frozen=True)
class ModeTransition:
    """One probe/steady mode change of the adaptive controller.

    Emitted by :meth:`AdaptiveSamplingController.run` and
    :meth:`~AdaptiveSamplingController.run_batch` whenever processing a
    window leaves a row's controller in a different mode than it entered
    with.  The transition takes effect at the window's *end* (the next
    window is the first sampled under the new mode), so ``time`` is the
    earliest instant the behaviour change is observable.  These are the
    ground truth the scenario matrix measures re-probe latency against --
    directly, instead of inferring mode changes from nrmse drift.
    """

    time: float
    from_mode: ControllerMode
    to_mode: ControllerMode
    window_start: float
    window_end: float

    @property
    def kind(self) -> str:
        """``"re-probe"`` (steady -> probe) or ``"settle"`` (probe -> steady)."""
        return "re-probe" if self.to_mode is ControllerMode.PROBE else "settle"


@dataclass
class AdaptiveRun:
    """Full record of an adaptive-sampling run over a ``baseline_samples``-long trace.

    ``segments`` holds each window's primary (slow probe) samples as ``(start, stop, stride)``.
    """

    baseline_samples: int
    decisions: list[WindowDecision] = field(default_factory=list)
    segments: list[tuple[int, int, int]] = field(default_factory=list)
    transitions: list[ModeTransition] = field(default_factory=list)

    @property
    def total_samples_collected(self) -> int:
        """Samples the adaptive system actually collected (its cost)."""
        return sum(decision.samples_collected for decision in self.decisions)

    @property
    def cost_reduction(self) -> float:
        """Factor by which the adaptive system reduces sample count."""
        collected = self.total_samples_collected
        if collected == 0:
            return float("inf")
        return self.baseline_samples / collected

    def sampling_rates(self) -> list[tuple[float, float]]:
        """(window_start, rate the controller sampled at) pairs."""
        return [(decision.window_start, decision.sampling_rate)
                for decision in self.decisions]


@dataclass
class _RowState:
    """Mutable per-trace state of the controller: one per row of a run."""

    mode: ControllerMode
    current_rate: float
    remembered_max_rate: float = 0.0
    windows_since_check: int = 0


class AdaptiveSamplingController:
    """State machine implementing the §4.2 adaptive sampling strawman.

    The per-window logic exists once, in a batch-synchronous stepper:
    every row of a ``(rows, n)`` reference matrix shares the same window
    bounds, so the stepper advances all rows one window at a time with
    per-row state (mode, rate, remembered maximum, windows since the last
    aliasing check).  Within a window, rows that probe at the same
    decimation factors form one group whose dual-rate check and Nyquist
    estimate are matrix operations
    (:meth:`~repro.core.aliasing.DualRateAliasingDetector.check_rows` and
    :meth:`~repro.core.nyquist.NyquistEstimator.estimate_batch`, the
    survey's vectorised engine, whose row bits do not depend on the
    batch); the adaptation rules then run per row.  :meth:`run` is the
    one-row case, so a trace gets the same decisions whether it is run
    alone or inside a batch.

    The controller itself holds no run state: every run starts each row
    in probe mode at ``config.initial_rate``, so one controller can serve
    any number of runs and each gets the decisions a fresh one would.

    Parameters
    ----------
    config:
        Tuning knobs (:class:`ControllerConfig` defaults when omitted).
        The controller builds its Nyquist estimator (the default energy
        cut-off, short-window detrend + Hann setup) and the default
        dual-rate detector itself.
    """

    def __init__(self, config: ControllerConfig | None = None) -> None:
        self.config = config or ControllerConfig()
        # The controller estimates over short windows, where a slow trend
        # that does not complete a cycle leaks energy across the spectrum
        # and inflates the estimate; detrending plus a Hann taper keeps the
        # windowed estimates honest (see NyquistEstimator docs).  The
        # strict "all bins needed" aliasing rule (1.0) is kept here: on
        # short windows the calibrated survey default (0.9) refuses too
        # eagerly and would boost the rate on every noisy window, and the
        # controller already carries its own aliasing safety net (the
        # dual-rate detector).
        self.estimator = NyquistEstimator(detrend=True, window="hann",
                                          aliased_band_fraction=1.0)
        self.detector = DualRateAliasingDetector()

    # ------------------------------------------------------------------
    def minimum_viable_rate(self, window_duration: float) -> float:
        """Lowest rate at which one window still feeds the estimator and detector.

        Both the Nyquist estimator and the dual-frequency detector need
        :data:`~repro.core.nyquist.MIN_SAMPLES` samples to say anything; a
        controller that drops below ``MIN_SAMPLES / window_duration``
        blinds its own safety net, so :meth:`run` never lets the rate fall
        below this floor.
        """
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        return MIN_SAMPLES / window_duration

    @staticmethod
    def _clamp(rate: float, floor: float, top: float) -> float:
        return float(min(max(rate, floor), top))

    # ------------------------------------------------------------------
    def _step(self, states: Sequence[_RowState], window: np.ndarray, interval: float,
              floor: float, window_start: float,
              window_end: float) -> list[tuple[WindowDecision, int]]:
        """Advance every row's controller by one window.

        ``window`` is the ``(rows, L)`` slice of the reference signal in
        this window, sampled every ``interval`` seconds; ``states[i]`` is
        row ``i``'s controller state and is updated in place.  Rates are
        clamped to ``[floor, top]``: ``floor`` is the run's lowest allowed
        rate (:data:`MIN_RATE` or the :meth:`minimum_viable_rate` of its
        windows, whichever is higher) and ``top`` the lower of ``max_rate``
        and the reference rate.  Returns per row the window's decision and
        the decimation factor of the stream the row collected (its
        primary, slow probe).
        """
        config = self.config
        ceiling = 1.0 / interval
        top = min(config.max_rate, ceiling)
        rates = [self._clamp(state.current_rate, floor, top) for state in states]

        # The dual-frequency check doubles measurement cost (§4.1), so in
        # steady mode it only runs every `aliasing_check_interval` windows;
        # probe mode always runs it because that is what probing is.  Rows
        # probing at the same decimation factors (and check schedule) are
        # evaluated together; a fast factor of 0 marks "no check".
        groups: dict[tuple[int, int], list[int]] = {}
        for row, (state, rate) in enumerate(zip(states, rates)):
            run_check = (state.mode is ControllerMode.PROBE
                         or state.windows_since_check + 1 >= config.aliasing_check_interval)
            slow_rate, fast_rate = self.detector.probe_rates(rate)
            fast_factor = decimation_factor(ceiling, min(fast_rate, ceiling)) if run_check else 0
            groups.setdefault((decimation_factor(ceiling, slow_rate), fast_factor),
                              []).append(row)

        results: dict[int, tuple[WindowDecision, int]] = {}
        for (slow_factor, fast_factor), members in groups.items():
            slow = window[members, ::slow_factor]
            if fast_factor:
                fast = window[members, ::fast_factor]
                aliased, discrepancy, _ = self.detector.check_rows(
                    slow, interval * slow_factor, fast, interval * fast_factor)
                samples_collected = slow.shape[1] + fast.shape[1]
                estimates = self.estimator.estimate_batch(fast, interval * fast_factor)
            else:
                aliased = np.zeros(len(members), dtype=bool)
                discrepancy = np.zeros(len(members))
                samples_collected = slow.shape[1]
                estimates = self.estimator.estimate_batch(slow, interval * slow_factor)

            for position, row in enumerate(members):
                state, rate, estimate = states[row], rates[row], estimates[position]
                state.windows_since_check = 0 if fast_factor else state.windows_since_check + 1
                row_aliased = bool(aliased[position])
                mode = state.mode
                next_rate = self._next_rate(state, rate, row_aliased, estimate, floor, top)
                results[row] = (WindowDecision(
                    window_start=window_start,
                    window_end=window_end,
                    mode=mode,
                    sampling_rate=rate,
                    samples_collected=samples_collected,
                    aliased=row_aliased,
                    aliasing_discrepancy=float(discrepancy[position]),
                    nyquist_estimate=(estimate.nyquist_rate if estimate.reliable
                                      else float("nan")),
                    next_rate=next_rate,
                ), slow_factor)
                state.current_rate = next_rate
        return [results[row] for row in range(len(states))]

    def _probe_toward(self, state: _RowState, proposed: float, rate: float,
                      floor: float, top: float) -> float:
        """Enter probe mode toward ``proposed`` -- unless we are already pinned.

        When the clamped proposal cannot exceed the current rate the
        controller sits at its ceiling (``max_rate`` or the reference
        rate): there is no faster rate left to probe, so paying the
        dual-stream cost every window buys nothing.  Settle instead; the
        periodic steady-mode aliasing check keeps watching for change.
        Without this, a genuinely broadband metric keeps the controller
        in probe mode forever and its cost *exceeds* the fixed baseline
        it is supposed to undercut.
        """
        clamped = self._clamp(proposed, floor, top)
        state.mode = ControllerMode.STEADY if clamped <= rate else ControllerMode.PROBE
        return clamped

    def _next_rate(self, state: _RowState, rate: float, aliased: bool,
                   estimate: NyquistEstimate, floor: float, top: float) -> float:
        """Apply the §4.2 adaptation rules and return the next window's rate."""
        config = self.config
        if aliased or (estimate.reliable and estimate.nyquist_rate > rate):
            # Under-sampling detected: multiplicative increase, jump-started
            # by the remembered maximum if we have one.
            proposed = rate * config.probe_multiplier
            if state.remembered_max_rate > proposed:
                proposed = state.remembered_max_rate
            return self._probe_toward(state, proposed, rate, floor, top)

        if not estimate.reliable:
            if state.mode is ControllerMode.STEADY and estimate.reason == "trace too short":
                # We already settled once and this window simply holds too
                # few samples at the (low) steady rate to re-estimate; hold
                # the rate rather than needlessly ramping back up.
                return self._clamp(rate, floor, top)
            # Still probing and nothing observable yet (or the probe itself
            # looks aliased): keep increasing until the Nyquist rate becomes
            # observable.  The remembered maximum is only used when aliasing
            # is positively detected, not for mere lack of data.
            return self._probe_toward(state, rate * config.probe_multiplier, rate,
                                      floor, top)

        # Clean estimate available: settle at Nyquist rate plus headroom.
        state.mode = ControllerMode.STEADY
        target = estimate.nyquist_rate * config.headroom
        state.remembered_max_rate = max(state.remembered_max_rate * _MEMORY_DECAY, target)
        if target < rate * _DECREASE_FACTOR:
            # The signal has quieted down a lot; decrease gradually rather
            # than jumping straight to the target so a transient lull does
            # not leave us wide open to aliasing.
            return self._clamp(rate * _DECREASE_FACTOR, floor, top)
        return self._clamp(target, floor, top)

    # ------------------------------------------------------------------
    def run(self, reference: TimeSeries, window_duration: float) -> AdaptiveRun:
        """Run the controller over ``reference`` in windows of ``window_duration`` seconds.

        Windows do not overlap, which is how the controller would run in
        production; Figure 7's overlapping window (6 h window, 5 min step)
        is an analysis view that :mod:`repro.core.windowed` provides.  The
        run starts in probe mode at ``config.initial_rate``.
        """
        return self._run_rows(reference.values[None, :], reference.interval,
                              reference.start_time, window_duration)[0]

    def run_batch(self, values: np.ndarray, interval: float,
                  window_duration: float) -> list[AdaptiveRun]:
        """Run the controller over every row of a ``(rows, n)`` reference matrix.

        All rows share one sampling ``interval`` (and start at time 0), so
        they share every window's bounds and step through the trace
        together.  Row ``i``'s run equals ``run(TimeSeries(values[i],
        interval), window_duration)`` -- same decisions, segments and
        transitions.
        """
        matrix = np.asarray(values, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"values must be a (rows, n) matrix, got shape {matrix.shape}")
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(f"interval must be a positive finite number, got {interval}")
        return self._run_rows(matrix, interval, 0.0, window_duration)

    def _run_rows(self, matrix: np.ndarray, interval: float, start_time: float,
                  window_duration: float) -> list[AdaptiveRun]:
        """Step fresh per-row states through the windows of a ``(rows, n)`` matrix."""
        floor = max(MIN_RATE, self.minimum_viable_rate(window_duration))
        rows, n = matrix.shape
        runs = [AdaptiveRun(baseline_samples=n) for _ in range(rows)]
        if not rows:
            return runs
        states = [_RowState(mode=ControllerMode.PROBE, current_rate=self.config.initial_rate)
                  for _ in range(rows)]
        # Row 0 stands for every row here: they share length, interval and start.
        timeline = TimeSeries(matrix[0], interval, start_time)
        for first, stop in timeline.iter_window_bounds(window_duration, window_duration):
            if stop - first < 2:
                continue
            window_start = start_time + first * interval
            window_end = window_start + (stop - first) * interval
            steps = self._step(states, matrix[:, first:stop], interval, floor,
                               window_start, window_end)
            for run, state, (decision, factor) in zip(runs, states, steps):
                run.decisions.append(decision)
                if state.mode is not decision.mode:
                    run.transitions.append(ModeTransition(
                        time=window_end, from_mode=decision.mode, to_mode=state.mode,
                        window_start=window_start, window_end=window_end))
                run.segments.append((first, stop, factor))
        return runs
