"""Unit tests for noise models and SNR helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.signals import noise
from repro.signals.generators import sine


class TestWhiteNoise:
    def test_statistics(self, rng):
        series = noise.white_noise(100.0, 10.0, std=2.0, mean=5.0, rng=rng)
        assert series.mean() == pytest.approx(5.0, abs=0.3)
        assert series.std() == pytest.approx(2.0, abs=0.3)

    def test_rejects_negative_std(self, rng):
        with pytest.raises(ValueError):
            noise.white_noise(1.0, 10.0, std=-1.0, rng=rng)

    def test_rejects_bad_duration(self, rng):
        with pytest.raises(ValueError):
            noise.white_noise(0.0, 10.0, rng=rng)

    def test_add_white_noise_zero_std_is_identity(self, sine_1hz, rng):
        assert noise.add_white_noise(sine_1hz, 0.0, rng=rng) is sine_1hz

    def test_add_white_noise_changes_values(self, sine_1hz, rng):
        noisy = noise.add_white_noise(sine_1hz, 0.5, rng=rng)
        assert not np.allclose(noisy.values, sine_1hz.values)
        assert len(noisy) == len(sine_1hz)

    def test_add_white_noise_rejects_negative(self, sine_1hz, rng):
        with pytest.raises(ValueError):
            noise.add_white_noise(sine_1hz, -0.1, rng=rng)


class TestSnr:
    def test_add_noise_snr_hits_target(self, rng):
        clean = sine(1.0, 50.0, 20.0, amplitude=5.0)
        noisy = noise.add_noise_snr(clean, 20.0, rng=rng)
        assert noise.snr_db(clean, noisy) == pytest.approx(20.0, abs=1.5)

    def test_snr_of_identical_series_is_infinite(self, sine_1hz):
        assert noise.snr_db(sine_1hz, sine_1hz) == math.inf

    def test_snr_rejects_length_mismatch(self, sine_1hz):
        with pytest.raises(ValueError):
            noise.snr_db(sine_1hz, sine_1hz.head(10))

    def test_add_noise_snr_constant_signal_unchanged(self, rng):
        from repro.signals.generators import constant
        flat = constant(5.0, 10.0, 10.0)
        assert noise.add_noise_snr(flat, 10.0, rng=rng) is flat


class TestPinkNoise:
    def test_pink_noise_std(self, rng):
        series = noise.pink_noise(100.0, 10.0, std=1.5, rng=rng)
        assert series.std() == pytest.approx(1.5, rel=0.05)

    def test_pink_noise_is_low_frequency_heavy(self, rng):
        from repro.core.psd import periodogram
        series = noise.pink_noise(200.0, 10.0, rng=rng)
        spectrum = periodogram(series).without_dc()
        half = spectrum.max_frequency / 2.0
        assert spectrum.energy_fraction_below(half) > 0.6

    def test_pink_noise_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            noise.pink_noise(0.0, 10.0, rng=rng)


class TestNoiseFloor:
    def test_median_floor(self):
        power = np.array([1.0, 1.0, 1.0, 100.0])
        assert noise.noise_floor_estimate(power) == pytest.approx(1.0)

    def test_empty_power(self):
        assert noise.noise_floor_estimate(np.empty(0)) == 0.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            noise.noise_floor_estimate(np.array([1.0]), quantile=1.5)

    def test_row_floors_match_scalar_bit_for_bit(self):
        power = np.random.default_rng(5).exponential(size=(9, 37))
        for quantile in (0.0, 0.25, 0.5, 0.9):
            floors = noise.noise_floor_estimates(power, quantile=quantile)
            assert [noise.noise_floor_estimate(row, quantile=quantile) for row in power] == \
                floors.tolist()

    def test_row_floors_edge_cases(self):
        assert noise.noise_floor_estimates(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            noise.noise_floor_estimates(np.ones(4))
        with pytest.raises(ValueError):
            noise.noise_floor_estimates(np.ones((2, 4)), quantile=-0.1)
