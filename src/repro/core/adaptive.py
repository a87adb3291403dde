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
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..signals.timeseries import TimeSeries
from .aliasing import DualRateAliasingDetector
from .nyquist import MIN_SAMPLES, NyquistEstimate, NyquistEstimator
from .resampling import decimation_factor

__all__ = [
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


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs of the adaptive controller (paper-guided defaults).

    Attributes
    ----------
    initial_rate:
        Sampling rate (Hz) the controller starts probing at.
    min_rate / max_rate:
        Hard bounds on the rate the controller may choose.  ``max_rate``
        defaults to infinity and is clamped to the reference trace's rate
        at run time (you cannot sample faster than the signal exists).
    probe_multiplier:
        Multiplicative increase applied while aliasing persists (§4.2
        "multiplicatively increase the measurement rate").
    decrease_factor:
        Multiplicative decrease applied in steady mode when the estimated
        Nyquist rate falls well below the current rate.
    headroom:
        Safety margin (>= 1) applied to the estimated Nyquist rate when
        settling ("maintaining ample headroom may be helpful").
    memory_decay:
        Per-window decay applied to the remembered maximum Nyquist rate;
        1.0 means "never forget", 0 disables memory.
    dual_rate_ratio:
        f1/f2 ratio used by the aliasing detector.
    energy_fraction:
        Energy threshold handed to the Nyquist estimator.
    aliasing_check_interval:
        In steady mode, run the (costly) dual-frequency aliasing check only
        every this many windows; in between, only the primary stream is
        collected and aliasing suspicion comes from the estimator itself.
        §4.1 notes the dual stream "roughly doubles measurement cost", so
        checking periodically rather than continuously is how a deployment
        keeps the net saving.  Set to 1 to check every window.
    """

    initial_rate: float = 1.0 / 300.0
    min_rate: float = 1.0 / 86400.0
    max_rate: float = math.inf
    probe_multiplier: float = 2.0
    decrease_factor: float = 0.5
    headroom: float = 1.2
    memory_decay: float = 0.9
    dual_rate_ratio: float = 1.6
    aliasing_threshold: float = 0.1
    energy_fraction: float = 0.99
    aliasing_check_interval: int = 4

    def __post_init__(self) -> None:
        if self.initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        if self.min_rate <= 0:
            raise ValueError("min_rate must be positive")
        if self.max_rate <= self.min_rate:
            raise ValueError("max_rate must exceed min_rate")
        if self.probe_multiplier <= 1:
            raise ValueError("probe_multiplier must be > 1")
        if not 0 < self.decrease_factor < 1:
            raise ValueError("decrease_factor must be in (0, 1)")
        if self.headroom < 1:
            raise ValueError("headroom must be >= 1")
        if not 0 <= self.memory_decay <= 1:
            raise ValueError("memory_decay must be in [0, 1]")
        if self.aliasing_check_interval < 1:
            raise ValueError("aliasing_check_interval must be >= 1")


@dataclass(frozen=True)
class WindowDecision:
    """What the controller did for one time window."""

    window_start: float
    window_end: float
    mode: ControllerMode
    sampling_rate: float
    samples_collected: int
    aliased: bool
    aliasing_discrepancy: float
    nyquist_estimate: float
    next_rate: float

    @property
    def window_duration(self) -> float:
        return self.window_end - self.window_start


@dataclass(frozen=True)
class ModeTransition:
    """One probe/steady mode change of the adaptive controller.

    Emitted by :meth:`AdaptiveSamplingController.run` whenever processing
    a window leaves the controller in a different mode than it entered
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
    """Full record of an adaptive-sampling run over a reference trace."""

    reference: TimeSeries
    decisions: list[WindowDecision] = field(default_factory=list)
    collected: list[TimeSeries] = field(default_factory=list)
    transitions: list[ModeTransition] = field(default_factory=list)

    @property
    def total_samples_collected(self) -> int:
        """Samples the adaptive system actually collected (its cost)."""
        return sum(decision.samples_collected for decision in self.decisions)

    @property
    def baseline_samples(self) -> int:
        """Samples the existing (full-rate) system collects over the same span."""
        return len(self.reference)

    @property
    def cost_reduction(self) -> float:
        """Factor by which the adaptive system reduces sample count."""
        collected = self.total_samples_collected
        if collected == 0:
            return float("inf")
        return self.baseline_samples / collected

    def inferred_rates(self) -> list[tuple[float, float]]:
        """(window_start, inferred Nyquist rate) pairs -- the Figure 7 series."""
        return [(decision.window_start, decision.nyquist_estimate)
                for decision in self.decisions]

    def sampling_rates(self) -> list[tuple[float, float]]:
        """(window_start, rate the controller sampled at) pairs."""
        return [(decision.window_start, decision.sampling_rate)
                for decision in self.decisions]

    def reprobe_transitions(self) -> list[ModeTransition]:
        """The steady -> probe transitions (aliasing re-detected mid-run)."""
        return [t for t in self.transitions if t.kind == "re-probe"]

    def collected_series(self) -> TimeSeries:
        """All collected samples concatenated into one (possibly uneven-rate) view.

        The concatenation keeps the coarsest common interval so downstream
        code can reconstruct; windows sampled at different rates are first
        aligned to the finest interval used anywhere in the run.
        """
        if not self.collected:
            return TimeSeries(np.empty(0), self.reference.interval,
                              self.reference.start_time, self.reference.name)
        finest = min(chunk.interval for chunk in self.collected if len(chunk))
        pieces: list[np.ndarray] = []
        for chunk in self.collected:
            if len(chunk) == 0:
                continue
            repeat = max(int(round(chunk.interval / finest)), 1)
            pieces.append(np.repeat(chunk.values, repeat))
        values = np.concatenate(pieces) if pieces else np.empty(0)
        return TimeSeries(values, finest, self.reference.start_time, self.reference.name)


@dataclass
class _RowState:
    """Mutable per-trace state of the controller: one per row of a batch."""

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
    (:meth:`~repro.core.aliasing.DualRateAliasingDetector.check_rows`,
    :meth:`~repro.core.nyquist.NyquistEstimator.estimate_rows`); the
    adaptation rules then run per row.  :meth:`run` is the one-row case
    and :meth:`process_window` the one-row, one-window case, so a trace
    gets the same decisions whether it is run alone or inside a batch.

    Parameters
    ----------
    config:
        Tuning knobs (:class:`ControllerConfig` defaults when omitted).
        The controller builds its Nyquist estimator (``energy_fraction``
        from the config, short-window detrend + Hann setup) and its
        dual-rate detector (``dual_rate_ratio``, ``aliasing_threshold``)
        from it.
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
        self.estimator = NyquistEstimator(
            energy_fraction=self.config.energy_fraction,
            detrend=True, window="hann", aliased_band_fraction=1.0)
        self.detector = DualRateAliasingDetector(
            rate_ratio=self.config.dual_rate_ratio,
            threshold=self.config.aliasing_threshold)
        self._state = self._initial_state()
        self._floor_rate = self.config.min_rate

    # ------------------------------------------------------------------
    def _initial_state(self) -> _RowState:
        return _RowState(mode=ControllerMode.PROBE, current_rate=self.config.initial_rate)

    @property
    def mode(self) -> ControllerMode:
        """Current operating mode (of the single-trace state :meth:`run` advances)."""
        return self._state.mode

    @mode.setter
    def mode(self, mode: ControllerMode) -> None:
        self._state.mode = mode

    @property
    def current_rate(self) -> float:
        """Rate the next window will be sampled at (before clamping)."""
        return self._state.current_rate

    @current_rate.setter
    def current_rate(self, rate: float) -> None:
        self._state.current_rate = rate

    @property
    def remembered_max_rate(self) -> float:
        """Decaying memory of the highest settled rate, used to re-ramp quickly."""
        return self._state.remembered_max_rate

    def reset(self) -> None:
        """Return the controller to its initial state (keeps configuration)."""
        self._state = self._initial_state()
        self._floor_rate = self.config.min_rate

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

    def _clamp(self, rate: float, ceiling: float) -> float:
        floor = max(self.config.min_rate, self._floor_rate)
        return float(min(max(rate, floor), min(self.config.max_rate, ceiling)))

    # ------------------------------------------------------------------
    def process_window(self, window: TimeSeries) -> WindowDecision:
        """Decide what to collect for one window of the underlying signal.

        ``window`` is the portion of the (high-rate) reference signal that
        exists during this window; the controller only "sees" the samples
        it chooses to collect from it.
        """
        if len(window) < 2:
            raise ValueError("window must contain at least two reference samples")
        return self._step([self._state], window.values[None, :], window.interval,
                          window.start_time, window.end_time)[0][0]

    def _step(self, states: Sequence[_RowState], window: np.ndarray, interval: float,
              window_start: float, window_end: float) -> list[tuple[WindowDecision, int]]:
        """Advance every row's controller by one window.

        ``window`` is the ``(rows, L)`` slice of the reference signal in
        this window, sampled every ``interval`` seconds; ``states[i]`` is
        row ``i``'s controller state and is updated in place.  Returns per
        row the window's decision and the decimation factor of the stream
        the row collected (its primary, slow probe).
        """
        config = self.config
        ceiling = 1.0 / interval
        rates = [self._clamp(state.current_rate, ceiling) for state in states]

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
                estimates = self.estimator.estimate_rows(fast, interval * fast_factor)
            else:
                aliased = np.zeros(len(members), dtype=bool)
                discrepancy = np.zeros(len(members))
                samples_collected = slow.shape[1]
                estimates = self.estimator.estimate_rows(slow, interval * slow_factor)

            for position, row in enumerate(members):
                state, rate, estimate = states[row], rates[row], estimates[position]
                state.windows_since_check = 0 if fast_factor else state.windows_since_check + 1
                row_aliased = bool(aliased[position])
                next_rate = self._next_rate(state, rate, row_aliased, estimate, ceiling)
                results[row] = (WindowDecision(
                    window_start=window_start,
                    window_end=window_end,
                    mode=state.mode,
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
                      ceiling: float) -> float:
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
        clamped = self._clamp(proposed, ceiling)
        state.mode = ControllerMode.STEADY if clamped <= rate else ControllerMode.PROBE
        return clamped

    def _next_rate(self, state: _RowState, rate: float, aliased: bool,
                   estimate: NyquistEstimate, ceiling: float) -> float:
        """Apply the §4.2 adaptation rules and return the next window's rate."""
        config = self.config
        if aliased or (estimate.reliable and estimate.nyquist_rate > rate):
            # Under-sampling detected: multiplicative increase, jump-started
            # by the remembered maximum if we have one.
            proposed = rate * config.probe_multiplier
            if state.remembered_max_rate > proposed:
                proposed = state.remembered_max_rate
            return self._probe_toward(state, proposed, rate, ceiling)

        if not estimate.reliable:
            if state.mode is ControllerMode.STEADY and estimate.reason == "trace too short":
                # We already settled once and this window simply holds too
                # few samples at the (low) steady rate to re-estimate; hold
                # the rate rather than needlessly ramping back up.
                return self._clamp(rate, ceiling)
            # Still probing and nothing observable yet (or the probe itself
            # looks aliased): keep increasing until the Nyquist rate becomes
            # observable.  The remembered maximum is only used when aliasing
            # is positively detected, not for mere lack of data.
            return self._probe_toward(state, rate * config.probe_multiplier, rate, ceiling)

        # Clean estimate available: settle at Nyquist rate plus headroom.
        state.mode = ControllerMode.STEADY
        target = estimate.nyquist_rate * config.headroom
        state.remembered_max_rate = max(state.remembered_max_rate * config.memory_decay,
                                        target)
        if target < rate * config.decrease_factor:
            # The signal has quieted down a lot; decrease gradually rather
            # than jumping straight to the target so a transient lull does
            # not leave us wide open to aliasing.
            return self._clamp(rate * config.decrease_factor, ceiling)
        return self._clamp(target, ceiling)

    # ------------------------------------------------------------------
    def run(self, reference: TimeSeries, window_duration: float,
            step: float | None = None) -> AdaptiveRun:
        """Run the controller over ``reference`` in windows of ``window_duration`` seconds.

        ``step`` defaults to ``window_duration`` (non-overlapping windows),
        which is how the controller would run in production; Figure 7 uses
        an overlapping window (6 h window, 5 min step) purely for analysis,
        which :mod:`repro.core.windowed` provides.  The run continues from
        (and advances) the controller's current state.
        """
        return self._run_rows([self._state], [reference], reference.values[None, :],
                              window_duration, step)[0]

    def run_batch(self, values: np.ndarray, interval: float,
                  window_duration: float) -> list[AdaptiveRun]:
        """Run the controller over every row of a ``(rows, n)`` reference matrix.

        All rows share one sampling ``interval`` (and start at time 0), so
        they share every (non-overlapping) window's bounds and step through
        the trace together.  Each row starts from a copy of the controller's
        current state; that state and the rate floor are left untouched.
        Row ``i``'s run equals ``run(TimeSeries(values[i], interval),
        window_duration)`` on a controller in that state -- same decisions,
        collected chunks and transitions.
        """
        matrix = np.asarray(values, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"values must be a (rows, n) matrix, got shape {matrix.shape}")
        references = [TimeSeries(row, interval) for row in matrix]
        states = [replace(self._state) for _ in references]
        floor_rate = self._floor_rate
        try:
            return self._run_rows(states, references, matrix, window_duration, None)
        finally:
            self._floor_rate = floor_rate

    def _run_rows(self, states: Sequence[_RowState], references: Sequence[TimeSeries],
                  matrix: np.ndarray, window_duration: float,
                  step: float | None) -> list[AdaptiveRun]:
        """Step ``states`` through the windows of equal-shape ``references``."""
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        step = window_duration if step is None else step
        if step <= 0:
            raise ValueError("step must be positive")
        self._floor_rate = self.minimum_viable_rate(window_duration)
        runs = [AdaptiveRun(reference=reference) for reference in references]
        if not references:
            return runs
        interval, start_time = references[0].interval, references[0].start_time
        for first, stop in references[0].iter_window_bounds(window_duration, step):
            if stop - first < 2:
                continue
            window_start = start_time + first * interval
            window_end = window_start + (stop - first) * interval
            modes_before = [state.mode for state in states]
            steps = self._step(states, matrix[:, first:stop], interval,
                               window_start, window_end)
            for run, state, mode_before, (decision, factor) in zip(runs, states, modes_before,
                                                                   steps):
                run.decisions.append(decision)
                if state.mode is not mode_before:
                    run.transitions.append(ModeTransition(
                        time=window_end, from_mode=mode_before, to_mode=state.mode,
                        window_start=window_start, window_end=window_end))
                run.collected.append(TimeSeries(run.reference.values[first:stop:factor],
                                                interval * factor, window_start,
                                                run.reference.name))
        return runs
