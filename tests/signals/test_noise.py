"""Unit tests for noise injection and noise-floor estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.signals import noise
from signal_helpers import white_noise


class TestWhiteNoise:
    def test_statistics(self, rng):
        series = white_noise(100.0, 10.0, std=2.0, mean=5.0, rng=rng)
        assert series.mean() == pytest.approx(5.0, abs=0.3)
        assert series.std() == pytest.approx(2.0, abs=0.3)

    def test_rejects_negative_std(self, rng):
        with pytest.raises(ValueError):
            white_noise(1.0, 10.0, std=-1.0, rng=rng)

    def test_rejects_bad_duration(self, rng):
        with pytest.raises(ValueError):
            white_noise(0.0, 10.0, rng=rng)

    def test_add_white_noise_zero_std_is_identity(self, sine_1hz, rng):
        assert noise.add_white_noise(sine_1hz, 0.0, rng=rng) is sine_1hz

    def test_add_white_noise_changes_values(self, sine_1hz, rng):
        noisy = noise.add_white_noise(sine_1hz, 0.5, rng=rng)
        assert not np.allclose(noisy.values, sine_1hz.values)
        assert len(noisy) == len(sine_1hz)

    def test_add_white_noise_rejects_negative(self, sine_1hz, rng):
        with pytest.raises(ValueError):
            noise.add_white_noise(sine_1hz, -0.1, rng=rng)


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
