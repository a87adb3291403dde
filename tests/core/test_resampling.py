"""Unit tests for re-sampling: regularisation, down-sampling, Fourier interpolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nyquist import estimate_nyquist_rate
from repro.core.resampling import (decimation_factor, downsample, fourier_resample,
                                   nearest_neighbor_resample, regularize, resample_to_rate)
from repro.signals.generators import multi_tone
from repro.signals.timeseries import IrregularTimeSeries, TimeSeries
from signal_helpers import sine
from reconstruction_oracle import fourier_resample_matrix


class TestNearestNeighbor:
    def test_recovers_regular_grid(self):
        series = sine(1.0, duration=10.0, sampling_rate=10.0)
        irregular = IrregularTimeSeries(series.times(), series.values)
        recovered = nearest_neighbor_resample(irregular, 0.1)
        assert recovered.interval == pytest.approx(0.1)
        np.testing.assert_allclose(recovered.values[:len(series)], series.values, atol=1e-9)

    def test_fills_gaps_with_nearest_value(self):
        irregular = IrregularTimeSeries([0.0, 1.0, 4.0], [10.0, 20.0, 50.0])
        regular = nearest_neighbor_resample(irregular, 1.0)
        np.testing.assert_allclose(regular.values, [10.0, 20.0, 20.0, 50.0, 50.0])

    def test_dedupes_before_resampling(self):
        irregular = IrregularTimeSeries([0.0, 0.0, 1.0], [1.0, 99.0, 2.0])
        regular = nearest_neighbor_resample(irregular, 1.0)
        np.testing.assert_allclose(regular.values, [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            nearest_neighbor_resample(IrregularTimeSeries([], []), 1.0)

    def test_grid_runs_from_the_first_to_the_last_timestamp(self):
        irregular = IrregularTimeSeries([2.0, 3.5, 6.0], [1.0, 2.0, 3.0])
        regular = nearest_neighbor_resample(irregular, 1.0)
        assert regular.start_time == 2.0
        np.testing.assert_allclose(regular.values, [1.0, 2.0, 2.0, 3.0, 3.0])

    def test_rejects_bad_interval(self):
        irregular = IrregularTimeSeries([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            nearest_neighbor_resample(irregular, 0.0)


class TestRegularize:
    def test_duplicate_timestamps_do_not_shrink_the_interval(self):
        irregular = IrregularTimeSeries([0.0, 0.0, 0.0, 10.0, 20.0], [1.0, 9.0, 9.0, 2.0, 3.0])
        regular = regularize(irregular)
        assert regular.interval == 10.0
        np.testing.assert_array_equal(regular.values, [1.0, 2.0, 3.0])

    def test_uses_median_interval(self, rng):
        series = sine(0.5, duration=20.0, sampling_rate=5.0)
        timestamps = series.times() + rng.normal(scale=0.01, size=len(series))
        irregular = IrregularTimeSeries(np.sort(timestamps), series.values)
        regular = regularize(irregular)
        assert regular.interval == pytest.approx(0.2, rel=0.1)


def polling_artefacts(series: TimeSeries, rng: np.random.Generator,
                      drop_fraction: float = 0.02,
                      duplicate_fraction: float = 0.01) -> IrregularTimeSeries:
    """What a poller reports: jittered timestamps, lost polls and retried polls."""
    limit = 0.45 * series.interval
    times = series.times() + np.clip(rng.normal(scale=0.1 * series.interval, size=len(series)),
                                     -limit, limit)
    keep = rng.random(len(series)) >= drop_fraction
    keep[0] = keep[-1] = True
    times, values = times[keep], series.values[keep]
    retried = rng.random(len(times)) < duplicate_fraction
    return IrregularTimeSeries(np.concatenate([times, times[retried]]),
                               np.concatenate([values, values[retried]]), series.name)


class TestEndToEndCleaning:
    @pytest.fixture
    def clean_trace(self):
        # Slow (8-minute period) signal polled every 10 s: consecutive samples
        # differ little, so nearest-neighbour gap filling stays accurate.
        return sine(0.002, duration=3600.0, sampling_rate=0.1, amplitude=5.0, offset=20.0)

    def test_regularize_recovers_signal(self, clean_trace, rng):
        messy = polling_artefacts(clean_trace, rng, drop_fraction=0.05, duplicate_fraction=0.02)
        assert np.ptp(messy.intervals()) > 0  # dropped and duplicated polls
        recovered = regularize(messy)
        # Nearest-neighbour cleaning recovers the slow signal to within a
        # small fraction of its amplitude.
        n = min(len(recovered), len(clean_trace))
        error = np.max(np.abs(recovered.values[:n] - clean_trace.values[:n]))
        assert error < 1.5

    def test_nyquist_estimate_robust_to_polling_artifacts(self, clean_trace, rng):
        messy = polling_artefacts(clean_trace, rng)
        clean_estimate = estimate_nyquist_rate(clean_trace)
        messy_estimate = estimate_nyquist_rate(messy)
        assert messy_estimate.reliable
        assert messy_estimate.nyquist_rate == pytest.approx(clean_estimate.nyquist_rate,
                                                            rel=0.5)


class TestDownsample:
    def test_factor_one_is_identity(self, sine_1hz):
        assert downsample(sine_1hz, 1) is sine_1hz

    def test_reduces_length_and_rate(self, sine_1hz):
        down = downsample(sine_1hz, 5)
        assert len(down) == len(sine_1hz) // 5
        assert down.sampling_rate == pytest.approx(sine_1hz.sampling_rate / 5)

    def test_anti_alias_protects_against_folding(self):
        # 1 Hz + 22 Hz tones sampled at 100 Hz, downsampled 10x -> new band
        # 5 Hz; the 22 Hz tone folds to 2 Hz unless it is filtered out first.
        series = multi_tone([1.0, 22.0], duration=4.0, sampling_rate=100.0)
        clean = downsample(series, 10)
        aliased = series.decimate(10)
        reference = sine(1.0, duration=4.0, sampling_rate=10.0)
        clean_error = np.max(np.abs(clean.values - reference.values[:len(clean)]))
        aliased_error = np.max(np.abs(aliased.values - reference.values[:len(aliased)]))
        assert clean_error < 0.1
        assert aliased_error > 0.5

    def test_rejects_bad_factor(self, sine_1hz):
        with pytest.raises(ValueError):
            downsample(sine_1hz, 0)


class TestResampleToRate:
    def test_target_above_current_rate_is_identity(self, sine_1hz):
        assert resample_to_rate(sine_1hz, 1000.0) is sine_1hz

    def test_never_exceeds_target(self, sine_1hz):
        resampled = resample_to_rate(sine_1hz, 7.0)
        assert resampled.sampling_rate <= 7.0 + 1e-9

    def test_rejects_bad_rate(self, sine_1hz):
        with pytest.raises(ValueError):
            resample_to_rate(sine_1hz, 0.0)


class TestDecimationFactor:
    def test_target_at_or_above_current_rate_keeps_every_sample(self):
        assert decimation_factor(10.0, 10.0) == 1
        assert decimation_factor(10.0, 25.0) == 1

    def test_rounds_up_so_the_rate_never_exceeds_the_target(self):
        factor = decimation_factor(10.0, 3.0)
        assert factor == 4
        assert 10.0 / factor <= 3.0

    def test_exact_ratio_is_not_rounded_past(self):
        # 1 / 0.1 is 10.000000000000002 in floating point; the factor stays 10.
        assert decimation_factor(1.0, 0.1) == 10

    def test_matches_resample_to_rate(self, sine_1hz):
        for target in (0.7, 3.0, 7.0, 24.9):
            factor = decimation_factor(sine_1hz.sampling_rate, target)
            resampled = resample_to_rate(sine_1hz, target)
            assert resampled.sampling_rate == pytest.approx(sine_1hz.sampling_rate / factor)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target_rate"):
            decimation_factor(10.0, 0.0)


class TestFourierResample:
    def test_upsample_recovers_band_limited_signal(self):
        dense = sine(3.0, duration=2.0, sampling_rate=200.0)
        sparse = sine(3.0, duration=2.0, sampling_rate=20.0)
        recovered = fourier_resample(sparse, len(dense))
        assert np.max(np.abs(recovered.values - dense.values)) < 0.02

    def test_same_length_is_identity(self, sine_1hz):
        assert fourier_resample(sine_1hz, len(sine_1hz)) is sine_1hz

    def test_downsample_then_upsample_round_trip(self, two_tone):
        reduced = fourier_resample(two_tone, 1000)
        restored = fourier_resample(reduced, len(two_tone))
        assert np.max(np.abs(restored.values - two_tone.values)) < 1e-6

    def test_preserves_duration(self, sine_1hz):
        resampled = fourier_resample(sine_1hz, 123)
        assert resampled.duration == pytest.approx(sine_1hz.duration, rel=1e-9)

    def test_rejects_bad_length(self, sine_1hz):
        with pytest.raises(ValueError):
            fourier_resample(sine_1hz, 0)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError, match="empty"):
            fourier_resample(TimeSeries(np.empty(0), 1.0), 10)

    def test_preserves_mean(self):
        series = sine(2.0, duration=2.0, sampling_rate=100.0, offset=10.0)
        up = fourier_resample(series, 500)
        assert up.mean() == pytest.approx(10.0, abs=0.01)


class TestFourierResampleMatrix:
    @pytest.mark.parametrize("n, target_length", [(64, 200), (63, 200), (64, 20), (63, 20)],
                             ids=["up-even", "up-odd", "down-even", "down-odd"])
    def test_rows_match_scalar_resample(self, rng, n, target_length):
        # Even-length up-sampling exercises the halved Nyquist bin.
        values = rng.normal(size=(3, n))
        matrix = fourier_resample_matrix(values, target_length)
        for index in range(3):
            scalar = fourier_resample(TimeSeries(values[index], 1.0), target_length)
            np.testing.assert_allclose(matrix[index], scalar.values, rtol=0, atol=1e-12)

    def test_same_length_is_identity(self, rng):
        values = rng.normal(size=(2, 16))
        assert fourier_resample_matrix(values, 16) is values

    @pytest.mark.parametrize("values, target_length, message", [
        (np.zeros(8), 4, "matrix"),
        (np.zeros((2, 8)), 0, "target_length"),
        (np.zeros((2, 0)), 4, "empty"),
    ], ids=["not-a-matrix", "zero-length-target", "empty-rows"])
    def test_rejects_bad_input(self, values, target_length, message):
        with pytest.raises(ValueError, match=message):
            fourier_resample_matrix(values, target_length)
