"""Unit tests for the adaptive sampling controller (Section 4.2)."""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.adaptive import (MIN_RATE, AdaptiveRun, AdaptiveSamplingController,
                                 ControllerConfig, ControllerMode)
from repro.core.aliasing import DualRateAliasingDetector
from repro.core.nyquist import MIN_SAMPLES, NyquistEstimator
from repro.core.resampling import decimation_factor
from repro.signals.generators import multi_tone
from repro.signals.noise import add_white_noise
from repro.signals.timeseries import TimeSeries


def quiet_then_busy(busy_frequency=1.0 / 120.0, rate=0.2, rng=None) -> TimeSeries:
    """12 h trace: 6 quiet hours then 6 hours with a fast component."""
    quiet = multi_tone([1.0 / 7200.0], duration=6 * 3600.0, sampling_rate=rate,
                       amplitudes=[3.0], offset=10.0)
    busy = multi_tone([1.0 / 7200.0, busy_frequency], duration=6 * 3600.0, sampling_rate=rate,
                      amplitudes=[3.0, 6.0], offset=10.0)
    trace = quiet.concatenate(busy)
    if rng is not None:
        trace = add_white_noise(trace, 0.02, rng=rng)
    return trace


class TestControllerConfig:
    def test_defaults_are_valid(self):
        ControllerConfig()

    @pytest.mark.parametrize("kwargs", [
        {"initial_rate": 0.0},
        {"max_rate": 1e-9},
        {"max_rate": MIN_RATE},
        {"probe_multiplier": 1.0},
        {"headroom": 0.5},
        {"aliasing_check_interval": 0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)


class TestControllerBehaviour:
    def test_starts_in_probe_mode(self, rng):
        config = ControllerConfig(initial_rate=1.0 / 120.0)
        run = AdaptiveSamplingController(config).run(quiet_then_busy(rng=rng), 3600.0)
        first = run.decisions[0]
        assert first.sampling_rate == config.initial_rate
        # Probing runs the dual-rate check, so the first window pays for
        # more than the primary stream alone.
        duration = first.window_end - first.window_start
        assert first.samples_collected > duration * config.initial_rate
        assert first.mode is ControllerMode.PROBE

    def test_minimum_viable_rate(self):
        controller = AdaptiveSamplingController()
        floor = controller.minimum_viable_rate(3600.0)
        assert floor * 3600.0 >= controller.estimator.min_samples
        assert floor == MIN_SAMPLES / 3600.0

    def test_estimator_and_detector_are_the_short_window_defaults(self):
        controller = AdaptiveSamplingController()
        assert controller.estimator.cache_token() == NyquistEstimator(
            detrend=True, window="hann", aliased_band_fraction=1.0).cache_token()
        default = DualRateAliasingDetector()
        assert ((controller.detector.rate_ratio, controller.detector.threshold)
                == (default.rate_ratio, default.threshold) == (1.6, 0.1))

    def test_minimum_viable_rate_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AdaptiveSamplingController().minimum_viable_rate(0.0)

    def test_run_settles_near_nyquist_on_stationary_signal(self, rng):
        # Signal with a 1/600 Hz component: true Nyquist rate ~1/300 Hz.
        reference = add_white_noise(
            multi_tone([1.0 / 600.0], duration=12 * 3600.0, sampling_rate=0.2,
                       amplitudes=[5.0], offset=20.0), 0.02, rng=rng)
        config = ControllerConfig(initial_rate=1.0 / 3600.0, max_rate=0.2)
        run = AdaptiveSamplingController(config).run(reference, window_duration=3600.0)
        final = run.decisions[-1]
        assert final.mode is ControllerMode.STEADY
        # Settled rate should be within a small factor of the true Nyquist rate.
        true_nyquist = 2.0 / 600.0
        assert true_nyquist * 0.8 <= final.sampling_rate <= true_nyquist * 6.0

    def test_ramps_up_when_signal_speeds_up(self, rng):
        reference = quiet_then_busy(rng=rng)
        config = ControllerConfig(initial_rate=1.0 / 900.0, max_rate=0.2,
                                  aliasing_check_interval=1)
        run = AdaptiveSamplingController(config).run(reference, window_duration=3600.0)
        quiet_rates = [d.sampling_rate for d in run.decisions if d.window_end <= 6 * 3600.0]
        busy_rates = [d.sampling_rate for d in run.decisions if d.window_start >= 7 * 3600.0]
        assert max(busy_rates) > max(quiet_rates)

    @pytest.mark.parametrize("window", [600.0, 3600.0])
    def test_rate_never_falls_below_the_window_floor(self, rng, window):
        # initial_rate and MIN_RATE sit far below MIN_SAMPLES / window, so
        # only the run's own window floor holds the rate up.
        config = ControllerConfig(initial_rate=1e-6, max_rate=0.2)
        run = AdaptiveSamplingController(config).run(quiet_then_busy(rng=rng), window)
        floor = MIN_SAMPLES / window
        assert run.decisions[0].sampling_rate == floor
        assert min(decision.sampling_rate for decision in run.decisions) >= floor

    def test_collects_fewer_samples_than_reference(self, rng):
        reference = quiet_then_busy(rng=rng)
        config = ControllerConfig(initial_rate=1.0 / 900.0, max_rate=0.2)
        run = AdaptiveSamplingController(config).run(reference, window_duration=3600.0)
        assert 0 < run.total_samples_collected < len(reference)
        assert run.cost_reduction > 1.0

    def test_decisions_cover_all_windows(self, rng):
        reference = quiet_then_busy(rng=rng)
        run = AdaptiveSamplingController().run(reference, window_duration=3600.0)
        assert len(run.decisions) == 12
        assert run.decisions[0].window_start == pytest.approx(reference.start_time)

    def test_rate_respects_bounds(self, rng):
        reference = quiet_then_busy(rng=rng)
        config = ControllerConfig(initial_rate=0.01, max_rate=0.05)
        run = AdaptiveSamplingController(config).run(reference, window_duration=3600.0)
        for decision in run.decisions:
            assert decision.sampling_rate <= 0.05 + 1e-12
            assert decision.next_rate <= 0.05 + 1e-12

    def test_segments_read_each_window_at_its_primary_stride(self, rng):
        reference = quiet_then_busy(rng=rng)
        controller = AdaptiveSamplingController()
        run = controller.run(reference, window_duration=3600.0)
        window = int(3600.0 / reference.interval)
        assert [(start, stop) for start, stop, _ in run.segments] == [
            (k * window, (k + 1) * window) for k in range(12)]
        for (_, _, stride), decision in zip(run.segments, run.decisions):
            slow_rate, _ = controller.detector.probe_rates(decision.sampling_rate)
            assert stride == decimation_factor(reference.sampling_rate, slow_rate)
        assert len({stride for _, _, stride in run.segments}) > 1

    def test_transitions_mark_every_mode_change_of_the_decisions(self, rng):
        """A decision carries the mode its window was sampled in, so a
        transition sits between two decisions whose modes differ."""
        run = AdaptiveSamplingController().run(quiet_then_busy(rng=rng), 1800.0)
        expected = [(decision.window_end, decision.mode, after.mode)
                    for decision, after in zip(run.decisions, run.decisions[1:])
                    if after.mode is not decision.mode]
        assert expected
        got = [(t.time, t.from_mode, t.to_mode) for t in run.transitions]
        assert got[:len(expected)] == expected
        # The last window's transition, if any, has no later decision to show it.
        last = run.decisions[-1]
        assert [entry[:2] for entry in got[len(expected):]] in (
            [], [(last.window_end, last.mode)])

    def test_decisions_do_not_look_ahead(self, rng):
        """An online controller: window k's decision uses no later samples."""
        reference = quiet_then_busy(rng=rng)
        full = AdaptiveSamplingController().run(reference, 3600.0)
        window = int(3600.0 / reference.interval)
        for windows in (1, 5, 9):
            prefix = AdaptiveSamplingController().run(reference.head(windows * window), 3600.0)
            assert repr(prefix.decisions) == repr(full.decisions[:windows])

    def test_memory_speeds_up_second_ramp(self, rng):
        # Two busy episodes: with memory the controller should reach a high
        # rate at least as fast the second time.
        rate = 0.2
        quiet = multi_tone([1.0 / 7200.0], duration=4 * 3600.0, sampling_rate=rate,
                           amplitudes=[3.0], offset=10.0)
        busy = multi_tone([1.0 / 7200.0, 1.0 / 120.0], duration=2 * 3600.0, sampling_rate=rate,
                          amplitudes=[3.0, 6.0], offset=10.0)
        reference = quiet.concatenate(busy).concatenate(quiet).concatenate(busy)
        config = ControllerConfig(initial_rate=1.0 / 900.0, max_rate=rate,
                                  aliasing_check_interval=1)
        run = AdaptiveSamplingController(config).run(reference, window_duration=1800.0)
        hours = np.array([d.window_start for d in run.decisions]) / 3600.0
        rates = np.array([d.sampling_rate for d in run.decisions])
        first_busy_peak = rates[(hours >= 4.0) & (hours < 6.0)].max()
        second_busy_peak = rates[(hours >= 10.0) & (hours < 12.0)].max()
        assert second_busy_peak >= first_busy_peak * 0.5

    def test_windows_shorter_than_two_samples_are_skipped(self):
        run = AdaptiveSamplingController().run(TimeSeries([1.0, 2.0, 3.0], 1.0), 1.0)
        assert run.decisions == [] and run.segments == []

    def test_run_rejects_bad_window(self, sine_1hz):
        with pytest.raises(ValueError):
            AdaptiveSamplingController().run(sine_1hz, window_duration=0.0)

    def test_steady_mode_checks_are_periodic(self, rng):
        reference = add_white_noise(
            multi_tone([1.0 / 600.0], duration=16 * 3600.0, sampling_rate=0.2,
                       amplitudes=[5.0], offset=20.0), 0.02, rng=rng)
        config = ControllerConfig(initial_rate=1.0 / 600.0, max_rate=0.2,
                                  aliasing_check_interval=4)
        controller = AdaptiveSamplingController(config)
        run = controller.run(reference, window_duration=3600.0)
        steady = [d for d in run.decisions if d.mode is ControllerMode.STEADY]
        # Most steady windows should be cheap (single stream): their sample
        # count should be noticeably below the dual-stream windows'.
        assert len(steady) > 4


class TestRunRecord:
    def test_an_empty_run_collects_nothing(self):
        run = AdaptiveRun(baseline_samples=8)
        assert run.segments == [] and run.total_samples_collected == 0
        assert run.cost_reduction == float("inf")

    def test_sampling_rates_follow_the_decisions(self, rng):
        run = AdaptiveSamplingController().run(quiet_then_busy(rng=rng), 3600.0)
        assert run.sampling_rates() == [(decision.window_start, decision.sampling_rate)
                                        for decision in run.decisions]


class TestBatchStepper:
    """``run_batch`` is the stepper ``run`` uses: N rows equal N single-trace runs."""

    @staticmethod
    def references(rng) -> np.ndarray:
        n = 12 * 720  # 12 h at 5 s
        return np.vstack([
            quiet_then_busy(rng=rng).values,                          # ramps up mid-trace
            quiet_then_busy(busy_frequency=1.0 / 900.0, rng=rng).values,
            np.full(n, 7.0),                                          # constant
            rng.normal(size=n),                                       # broadband
            add_white_noise(multi_tone([1.0 / 5400.0], duration=12 * 3600.0,
                                       sampling_rate=0.2, amplitudes=[2.0]),
                            0.01, rng=rng).values,
        ])

    @pytest.mark.parametrize("config", [
        ControllerConfig(),
        ControllerConfig(initial_rate=1.0 / 900.0, max_rate=0.05, aliasing_check_interval=2),
        ControllerConfig(initial_rate=1.0 / 60.0, max_rate=1.0 / 30.0),
    ])
    def test_rows_equal_single_trace_runs(self, rng, config):
        values = self.references(rng)
        batched = AdaptiveSamplingController(config).run_batch(values, 5.0, 3600.0)
        assert len(batched) == len(values)
        for row, run in zip(values, batched):
            single = AdaptiveSamplingController(config).run(TimeSeries(row, 5.0), 3600.0)
            # repr compares every decision field exactly, NaN estimates included.
            assert repr(run.decisions) == repr(single.decisions)
            assert run.transitions == single.transitions
            assert run.segments == single.segments
            assert run.baseline_samples == single.baseline_samples == len(row)
        # The batch really did split: rows sampled at different rates in
        # the same window, so the stepper evaluated several rate groups.
        rates = np.array([[d.sampling_rate for d in run.decisions] for run in batched])
        assert any(len(set(column)) > 1 for column in rates.T)

    def test_controller_holds_no_run_state(self, rng):
        controller = AdaptiveSamplingController()
        assert set(vars(controller)) == {"config", "estimator", "detector"}
        controller.run_batch(self.references(rng), 5.0, 600.0)
        controller.run(TimeSeries(self.references(rng)[0], 5.0), 3600.0)
        assert set(vars(controller)) == {"config", "estimator", "detector"}

    @pytest.mark.parametrize("earlier_window", [3600.0, 600.0])
    def test_an_earlier_run_does_not_change_the_next(self, rng, earlier_window):
        # The same run twice, and a run after one whose window floor is 6x higher.
        reference = TimeSeries(self.references(rng)[0], 5.0)
        expected = AdaptiveSamplingController().run(reference, 3600.0)
        assert expected.transitions  # the run ends in another mode than it starts in
        controller = AdaptiveSamplingController()
        controller.run(reference, earlier_window)
        run = controller.run(reference, 3600.0)
        assert repr(run.decisions) == repr(expected.decisions)
        assert run.transitions == expected.transitions

    def test_batch_leaves_no_state_behind(self, rng):
        window = TimeSeries(self.references(rng)[0][:720], 5.0)
        expected = AdaptiveSamplingController().run(window, 3600.0)
        controller = AdaptiveSamplingController()
        # A 600 s window needs a rate floor of 16/600 Hz, far above the
        # initial rate; the batch must not leave that floor behind for the
        # controller's next run.
        controller.run_batch(self.references(rng), 5.0, 600.0)
        after = controller.run(window, 3600.0)
        assert len(after.decisions) == 1
        assert repr(after.decisions) == repr(expected.decisions)

    def test_empty_and_bad_input(self):
        controller = AdaptiveSamplingController()
        assert controller.run_batch(np.empty((0, 100)), 5.0, 3600.0) == []
        with pytest.raises(ValueError, match="interval"):
            controller.run_batch(np.empty((0, 100)), float("nan"), 3600.0)
        with pytest.raises(ValueError, match="matrix"):
            controller.run_batch(np.zeros(100), 5.0, 3600.0)
        with pytest.raises(ValueError):
            controller.run_batch(np.zeros((2, 100)), 5.0, 0.0)
        for interval in (0.0, -5.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="interval"):
                controller.run_batch(np.zeros((2, 100)), interval, 3600.0)
