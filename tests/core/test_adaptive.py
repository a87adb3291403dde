"""Unit tests for the adaptive sampling controller (Section 4.2)."""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSamplingController, ControllerConfig, ControllerMode
from repro.core.nyquist import MIN_SAMPLES, NyquistEstimator
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
        {"min_rate": 0.0},
        {"max_rate": 1e-9, "min_rate": 1e-6},
        {"probe_multiplier": 1.0},
        {"decrease_factor": 1.5},
        {"headroom": 0.5},
        {"memory_decay": 1.5},
        {"aliasing_check_interval": 0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)


class TestControllerBehaviour:
    def test_starts_in_probe_mode(self):
        controller = AdaptiveSamplingController()
        assert controller.mode is ControllerMode.PROBE
        assert controller.current_rate == controller.config.initial_rate

    def test_reset_restores_initial_state(self):
        controller = AdaptiveSamplingController()
        controller.current_rate = 123.0
        controller.mode = ControllerMode.STEADY
        controller.reset()
        assert controller.mode is ControllerMode.PROBE
        assert controller.current_rate == controller.config.initial_rate

    def test_minimum_viable_rate(self):
        controller = AdaptiveSamplingController()
        floor = controller.minimum_viable_rate(3600.0)
        assert floor * 3600.0 >= controller.estimator.min_samples
        assert floor == MIN_SAMPLES / 3600.0

    def test_estimator_and_detector_come_from_the_config(self):
        config = ControllerConfig(energy_fraction=0.95, dual_rate_ratio=1.3,
                                  aliasing_threshold=0.2)
        controller = AdaptiveSamplingController(config)
        assert controller.estimator.cache_token() == NyquistEstimator(
            energy_fraction=0.95, detrend=True, window="hann",
            aliased_band_fraction=1.0).cache_token()
        assert (controller.detector.rate_ratio, controller.detector.threshold) == (1.3, 0.2)

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
        config = ControllerConfig(initial_rate=0.01, min_rate=1.0 / 7200.0, max_rate=0.05)
        run = AdaptiveSamplingController(config).run(reference, window_duration=3600.0)
        for decision in run.decisions:
            assert decision.sampling_rate <= 0.05 + 1e-12
            assert decision.next_rate <= 0.05 + 1e-12

    def test_inferred_rates_series_matches_decisions(self, rng):
        reference = quiet_then_busy(rng=rng)
        run = AdaptiveSamplingController().run(reference, window_duration=3600.0)
        inferred = run.inferred_rates()
        assert len(inferred) == len(run.decisions)
        assert inferred[0][0] == run.decisions[0].window_start

    def test_collected_series_is_nonempty(self, rng):
        reference = quiet_then_busy(rng=rng)
        run = AdaptiveSamplingController().run(reference, window_duration=3600.0)
        collected = run.collected_series()
        assert len(collected) > 0
        assert collected.start_time == reference.start_time

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
                                  aliasing_check_interval=1, memory_decay=1.0)
        run = AdaptiveSamplingController(config).run(reference, window_duration=1800.0)
        hours = np.array([d.window_start for d in run.decisions]) / 3600.0
        rates = np.array([d.sampling_rate for d in run.decisions])
        first_busy_peak = rates[(hours >= 4.0) & (hours < 6.0)].max()
        second_busy_peak = rates[(hours >= 10.0) & (hours < 12.0)].max()
        assert second_busy_peak >= first_busy_peak * 0.5

    def test_window_shorter_than_two_samples_rejected(self):
        controller = AdaptiveSamplingController()
        with pytest.raises(ValueError):
            controller.process_window(TimeSeries([1.0], 1.0))

    def test_run_rejects_bad_window(self, sine_1hz):
        with pytest.raises(ValueError):
            AdaptiveSamplingController().run(sine_1hz, window_duration=0.0)

    @pytest.mark.parametrize("step", [0.0, -1.0])
    def test_run_rejects_non_positive_step(self, sine_1hz, step):
        with pytest.raises(ValueError, match="step"):
            AdaptiveSamplingController().run(sine_1hz, window_duration=2.0, step=step)

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
        ControllerConfig(initial_rate=1.0 / 60.0, max_rate=1.0 / 30.0, memory_decay=1.0),
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
            assert len(run.collected) == len(single.collected)
            for ours, theirs in zip(run.collected, single.collected):
                assert np.array_equal(ours.values, theirs.values)
                assert (ours.interval, ours.start_time) == (theirs.interval, theirs.start_time)
        # The batch really did split: rows sampled at different rates in
        # the same window, so the stepper evaluated several rate groups.
        rates = np.array([[d.sampling_rate for d in run.decisions] for run in batched])
        assert any(len(set(column)) > 1 for column in rates.T)

    def test_batch_leaves_controller_state_alone(self, rng):
        window = TimeSeries(self.references(rng)[0][:720], 5.0)
        expected = AdaptiveSamplingController().process_window(window)
        controller = AdaptiveSamplingController()
        # A 600 s window needs a rate floor of 16/600 Hz, far above the
        # initial rate; the batch must not leave that floor behind for the
        # controller's own next window.
        controller.run_batch(self.references(rng), 5.0, 600.0)
        assert controller.mode is ControllerMode.PROBE
        assert controller.current_rate == controller.config.initial_rate
        assert repr(controller.process_window(window)) == repr(expected)

    def test_run_advances_controller_state(self, rng):
        controller = AdaptiveSamplingController()
        run = controller.run(TimeSeries(self.references(rng)[0], 5.0), 3600.0)
        assert controller.current_rate == run.decisions[-1].next_rate
        assert controller.mode is run.decisions[-1].mode

    def test_empty_and_bad_input(self):
        controller = AdaptiveSamplingController()
        assert controller.run_batch(np.empty((0, 100)), 5.0, 3600.0) == []
        with pytest.raises(ValueError, match="matrix"):
            controller.run_batch(np.zeros(100), 5.0, 3600.0)
        with pytest.raises(ValueError):
            controller.run_batch(np.zeros((2, 100)), 5.0, 0.0)
