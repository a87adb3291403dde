"""Unit tests for moving-window Nyquist inference (Figure 7)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.nyquist import NyquistEstimator
from repro.core.windowed import (FIGURE7_STEP_SECONDS, FIGURE7_WINDOW_SECONDS,
                                 WindowedEstimate, rate_stability, windowed_nyquist_rates)
from repro.signals.generators import multi_tone
from signal_helpers import sine


def scalar_windowed_rates(series, window_seconds, step_seconds, estimator=None):
    """The sweep computed the reference way: ``estimator.estimate`` per window."""
    estimator = estimator or NyquistEstimator()
    return [WindowedEstimate(window.start_time, window.end_time, estimator.estimate(window))
            for window in series.iter_windows(window_seconds, step_seconds)
            if len(window) >= estimator.min_samples]


class TestWindowedEstimates:
    def test_figure7_defaults(self):
        assert FIGURE7_WINDOW_SECONDS == 6 * 3600.0
        assert FIGURE7_STEP_SECONDS == 5 * 60.0

    def test_stationary_signal_gives_stable_rates(self):
        series = sine(1.0 / 1800.0, duration=86400.0, sampling_rate=1.0 / 60.0, amplitude=5.0)
        estimates = windowed_nyquist_rates(series, window_seconds=6 * 3600.0,
                                           step_seconds=3600.0)
        rates = [entry.nyquist_rate for entry in estimates]
        assert len(estimates) == 19
        assert all(not math.isnan(rate) for rate in rates)
        assert max(rates) / min(rates) < 2.0

    def test_changing_signal_gives_changing_rates(self):
        rate = 1.0 / 30.0
        slow = sine(1.0 / 7200.0, duration=43200.0, sampling_rate=rate, amplitude=5.0)
        fast = multi_tone([1.0 / 7200.0, 1.0 / 600.0], duration=43200.0, sampling_rate=rate,
                          amplitudes=[5.0, 5.0])
        series = slow.concatenate(fast)
        estimates = windowed_nyquist_rates(series, window_seconds=6 * 3600.0,
                                           step_seconds=3600.0,
                                           estimator=NyquistEstimator(detrend=True, window="hann"))
        first_half = [e.nyquist_rate for e in estimates if e.window_end <= 43200.0]
        second_half = [e.nyquist_rate for e in estimates if e.window_start >= 43200.0]
        assert np.nanmedian(second_half) > np.nanmedian(first_half) * 3

    def test_windows_carry_time_bounds(self):
        series = sine(1.0 / 1800.0, duration=43200.0, sampling_rate=1.0 / 60.0)
        estimates = windowed_nyquist_rates(series, window_seconds=6 * 3600.0,
                                           step_seconds=2 * 3600.0)
        assert estimates[0].window_start == pytest.approx(0.0)
        assert estimates[0].window_end == pytest.approx(6 * 3600.0)
        assert estimates[1].window_start == pytest.approx(2 * 3600.0)

    def test_short_windows_are_skipped(self):
        series = sine(1.0, duration=10.0, sampling_rate=2.0)
        estimates = windowed_nyquist_rates(series, window_seconds=1.0, step_seconds=1.0)
        assert estimates == []


class TestBackendEquivalence:
    """The vectorised (sliding_window_view + estimate_batch) sweep must
    reproduce the per-window reference loop, window for window."""

    @staticmethod
    def assert_series_equivalent(scalar, batched):
        assert len(scalar) == len(batched)
        for a, b in zip(scalar, batched):
            assert a.window_start == b.window_start
            assert a.window_end == b.window_end
            assert a.estimate.reliable == b.estimate.reliable
            assert a.estimate.reason == b.estimate.reason
            assert np.isclose(a.estimate.nyquist_rate, b.estimate.nyquist_rate)
            assert np.isclose(a.estimate.captured_fraction, b.estimate.captured_fraction)

    @pytest.mark.parametrize("window_seconds,step_seconds", [
        (6 * 3600.0, 3600.0),     # the paper's shape: exact multiples
        (6 * 3600.0, 300.0),      # Figure 7 defaults on a day-long trace
        (5000.0, 1700.0),         # window/step not multiples of the interval
        (4321.0, 987.0),          # fully ragged boundaries
    ])
    def test_equivalence_on_tone(self, window_seconds, step_seconds):
        series = sine(1.0 / 1800.0, duration=86400.0, sampling_rate=1.0 / 60.0,
                      amplitude=5.0)
        scalar = scalar_windowed_rates(series, window_seconds, step_seconds)
        batched = windowed_nyquist_rates(series, window_seconds, step_seconds)
        assert scalar  # the sweep is non-trivial
        self.assert_series_equivalent(scalar, batched)

    def test_equivalence_with_ragged_window_lengths(self, rng):
        """Non-integer window/interval ratios make neighbouring windows
        differ by one sample; every length group must still be analysed."""
        series = sine(0.003, duration=3500.0, sampling_rate=1.0 / 7.0, amplitude=3.0)
        series = series.with_values(series.values + 0.01 * rng.normal(size=len(series)))
        scalar = scalar_windowed_rates(series, window_seconds=300.0, step_seconds=93.0)
        batched = windowed_nyquist_rates(series, window_seconds=300.0, step_seconds=93.0)
        lengths = {round((e.window_end - e.window_start) / 7.0) for e in batched}
        assert len(lengths) > 1  # the ragged case is actually exercised
        self.assert_series_equivalent(scalar, batched)

    def test_equivalence_with_tapered_detrended_estimator(self, rng):
        estimator = NyquistEstimator(detrend=True, window="hann")
        rate = 1.0 / 30.0
        slow = sine(1.0 / 7200.0, duration=43200.0, sampling_rate=rate, amplitude=5.0)
        fast = multi_tone([1.0 / 7200.0, 1.0 / 600.0], duration=43200.0,
                          sampling_rate=rate, amplitudes=[5.0, 5.0])
        series = slow.concatenate(fast)
        scalar = scalar_windowed_rates(series, 6 * 3600.0, 1800.0, estimator=estimator)
        batched = windowed_nyquist_rates(series, 6 * 3600.0, 1800.0, estimator=estimator)
        self.assert_series_equivalent(scalar, batched)

    def test_empty_sweep(self):
        series = sine(1.0, duration=10.0, sampling_rate=2.0)
        assert windowed_nyquist_rates(series, 1.0, 1.0) == []

    def test_rejects_bad_window(self):
        series = sine(1.0, duration=10.0, sampling_rate=2.0)
        for sweep in (scalar_windowed_rates, windowed_nyquist_rates):
            with pytest.raises(ValueError):
                sweep(series, 0.0, 1.0)


class TestRateStability:
    def test_empty_input(self):
        stats = rate_stability([])
        assert stats["count"] == 0.0
        assert math.isnan(stats["min"])

    def test_summary_values(self):
        series = sine(1.0 / 1800.0, duration=86400.0, sampling_rate=1.0 / 60.0, amplitude=5.0)
        estimates = windowed_nyquist_rates(series, window_seconds=6 * 3600.0,
                                           step_seconds=3600.0)
        stats = rate_stability(estimates)
        assert stats["count"] == len(estimates)
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["dynamic_range"] >= 1.0
