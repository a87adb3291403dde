"""Unit tests for event injection and detection scoring."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.adaptive import ControllerMode
from repro.core.resampling import decimation_factor
from repro.pipeline.events import (EventKind, ModeTransition, inject_event, reprobe_latency,
                                   resettle_latency, score_detection)
from repro.pipeline.policies import AdaptiveDualRatePolicy
from repro.scenarios import RegimeShift
from repro.signals.generators import multi_tone
from repro.signals.timeseries import TimeSeries
from repro.signals.noise import add_white_noise
from signal_helpers import sine


def poll(series: TimeSeries, rate: float) -> TimeSeries:
    """What a poller at ``rate`` reads off ``series``: plain decimation."""
    return series.decimate(decimation_factor(series.sampling_rate, rate))


@pytest.fixture
def baseline_trace(rng):
    trace = sine(1.0 / 3600.0, duration=21600.0, sampling_rate=1.0 / 30.0,
                 amplitude=2.0, offset=20.0)
    return add_white_noise(trace, 0.05, rng=rng)


class TestInjectEvent:
    def test_step_persists_to_end(self, baseline_trace):
        modified, event = inject_event(baseline_trace, EventKind.STEP, 10000.0, magnitude=10.0)
        assert event.kind is EventKind.STEP
        assert modified.values[-1] > baseline_trace.values[-1] + 5.0
        assert modified.values[0] == pytest.approx(baseline_trace.values[0])

    def test_spike_is_short(self, baseline_trace):
        modified, _ = inject_event(baseline_trace, EventKind.SPIKE, 10000.0, magnitude=50.0)
        changed = np.count_nonzero(np.abs(modified.values - baseline_trace.values) > 1.0)
        assert 1 <= changed <= 3

    def test_burst_affects_a_window(self, baseline_trace):
        """A burst flaps over 2 % of the trace (432 s of a 6 h trace)."""
        modified, event = inject_event(baseline_trace, EventKind.BURST, 10000.0,
                                       magnitude=30.0)
        changed = np.abs(modified.values - baseline_trace.values) > 1.0
        times = baseline_trace.times()
        assert not np.any(changed[times < 10000.0])
        assert np.any(changed[(times >= 10000.0) & (times < 10432.0)])
        assert not np.any(changed[times >= 10432.0])
        assert event.start_time + event.duration == pytest.approx(10432.0)

    def test_rejects_event_outside_trace(self, baseline_trace):
        with pytest.raises(ValueError):
            inject_event(baseline_trace, EventKind.STEP, 10 ** 9, magnitude=1.0)

    def test_rejects_empty_trace(self):
        from repro.signals.timeseries import TimeSeries
        with pytest.raises(ValueError):
            inject_event(TimeSeries(np.empty(0), 1.0), EventKind.STEP, 0.0, 1.0)


class TestDetection:
    def test_full_rate_stream_detects_step_quickly(self, baseline_trace):
        modified, event = inject_event(baseline_trace, EventKind.STEP, 10000.0, magnitude=15.0)
        outcome = score_detection("full", modified, event)
        assert outcome.detected
        assert outcome.latency <= 60.0

    def test_downsampled_stream_detects_later(self, baseline_trace):
        modified, event = inject_event(baseline_trace, EventKind.STEP, 10000.0, magnitude=15.0)
        slow = poll(modified, 1.0 / 1800.0)
        fast_outcome = score_detection("fast", modified, event)
        slow_outcome = score_detection("slow", slow, event)
        assert slow_outcome.detected
        assert slow_outcome.latency >= fast_outcome.latency

    def test_spike_can_be_missed_by_slow_sampling(self, baseline_trace):
        modified, event = inject_event(baseline_trace, EventKind.SPIKE, 10001.0, magnitude=40.0)
        slow = poll(modified, 1.0 / 3600.0)
        outcome = score_detection("slow", slow, event)
        # A one-sample spike between two slow polls is invisible.
        if not outcome.detected:
            assert math.isinf(outcome.latency)

    @pytest.mark.parametrize("magnitude", [20.0, -20.0], ids=["rise", "drop"])
    def test_step_is_detected_in_either_direction(self, magnitude):
        """A fail-stop that drops the metric is an event too: the detector
        compares in the direction of the event's magnitude."""
        trace = multi_tone([1.0 / 3600.0], duration=43200.0, sampling_rate=1.0 / 30.0,
                           amplitudes=[1.0], offset=40.0)
        modified, event = inject_event(trace, EventKind.STEP, 30000.0, magnitude)
        outcome = score_detection("full", modified, event)
        assert outcome.detected
        assert outcome.latency == 0.0

    def test_empty_stream_misses(self, baseline_trace):
        from repro.signals.timeseries import TimeSeries
        modified, event = inject_event(baseline_trace, EventKind.STEP, 10000.0, magnitude=15.0)
        outcome = score_detection("none", TimeSeries(np.empty(0), 1.0), event)
        assert not outcome.detected

    @pytest.mark.parametrize("magnitude", [0.01, -0.01], ids=["rise", "drop"])
    def test_missed_when_event_below_threshold(self, baseline_trace, magnitude):
        modified, event = inject_event(baseline_trace, EventKind.STEP, 10000.0,
                                       magnitude=magnitude)
        outcome = score_detection("full", modified, event)
        assert not outcome.detected
        assert outcome.latency == math.inf


class TestModeTransitionScoring:
    """reprobe/resettle latency from the controller's transition stream."""

    @staticmethod
    def _transition(time, kind):
        frm, to = ((ControllerMode.STEADY, ControllerMode.PROBE)
                   if kind == "re-probe"
                   else (ControllerMode.PROBE, ControllerMode.STEADY))
        return ModeTransition(time=time, from_mode=frm, to_mode=to,
                              window_start=time - 100.0, window_end=time)

    def test_kind_property(self):
        assert self._transition(100.0, "re-probe").kind == "re-probe"
        assert self._transition(100.0, "settle").kind == "settle"

    def test_reprobe_latency_first_transition_at_or_after_shift(self):
        transitions = [self._transition(100.0, "settle"),
                       self._transition(400.0, "re-probe"),
                       self._transition(900.0, "re-probe")]
        assert reprobe_latency(transitions, 250.0) == pytest.approx(150.0)
        # A transition exactly at the shift counts: latency zero.
        assert reprobe_latency(transitions, 400.0) == pytest.approx(0.0)

    def test_reprobe_latency_none_when_never_noticed(self):
        transitions = [self._transition(100.0, "settle")]
        assert reprobe_latency(transitions, 250.0) is None
        assert reprobe_latency([], 250.0) is None
        # Pre-shift re-probes do not count.
        assert reprobe_latency([self._transition(100.0, "re-probe")], 250.0) is None

    def test_resettle_latency_measures_the_full_disruption_window(self):
        transitions = [self._transition(300.0, "settle"),
                       self._transition(500.0, "re-probe"),
                       self._transition(800.0, "settle")]
        assert resettle_latency(transitions, 250.0) == pytest.approx(550.0)

    def test_resettle_latency_none_without_reprobe_or_resettle(self):
        assert resettle_latency([self._transition(300.0, "settle")], 250.0) is None
        assert resettle_latency([self._transition(500.0, "re-probe")], 250.0) is None

    def test_controller_emits_reprobe_on_a_real_regime_shift(self):
        """End to end: a settled controller meets a mid-trace regime shift
        and the transition stream records a measurable re-probe."""
        quiet = sine(1.0 / 1800.0, duration=4 * 3600.0, sampling_rate=0.5,
                     amplitude=5.0, offset=20.0)
        shifted = RegimeShift(shift_fraction=0.5, frequency_fraction=0.8, amplitude=4.0)
        values = shifted.apply(quiet.values, quiet.interval, "Link util", "leaf-0")
        trace = TimeSeries(values, quiet.interval, name="Link util")
        policy = AdaptiveDualRatePolicy(window_duration=1800.0)
        run = policy.run_controller(trace)
        assert run.transitions, "controller never changed mode"
        shift_time = 0.5 * trace.duration
        latency = reprobe_latency(run.transitions, shift_time)
        assert latency is not None
        assert 0.0 <= latency <= trace.duration / 2
