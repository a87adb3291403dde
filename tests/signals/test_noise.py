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

    @pytest.mark.parametrize("bins", [1, 36, 37])
    def test_row_floors_match_scalar_bit_for_bit(self, bins):
        power = np.random.default_rng(bins).exponential(size=(9, bins))
        floors = noise.noise_floor_estimates(power)
        assert [noise.noise_floor_estimate(row) for row in power] == floors.tolist()

    def test_row_floors_edge_cases(self):
        assert noise.noise_floor_estimates(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            noise.noise_floor_estimates(np.ones(4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNoiseFloorOracle:
    """The partition floors are ``np.quantile(..., 0.5, axis=-1)`` bit for bit."""

    @staticmethod
    def rows(bins: int) -> np.ndarray:
        rng = np.random.default_rng(bins)
        random = rng.exponential(size=(64, bins))
        picks = np.array([0.0, -0.0, 1.0, 2.0, 2.0, np.inf, -np.inf, np.nan])
        mixed = rng.choice(picks, size=(64, bins))
        ties = np.vstack([np.full(bins, 3.0), np.zeros(bins), np.full(bins, np.inf),
                          np.full(bins, -np.inf), np.full(bins, np.nan)])
        return np.vstack([random, mixed, ties])

    @pytest.mark.parametrize("bins", [1, 2, 3, 4, 31, 32])
    def test_floors_equal_quantile(self, bins):
        power = self.rows(bins)
        expected = np.quantile(power, 0.5, axis=-1)
        assert noise.noise_floor_estimates(power).tobytes() == expected.tobytes()
        for row, floor in zip(power, expected):
            assert np.float64(noise.noise_floor_estimate(row)).tobytes() == floor.tobytes()

    def test_input_is_left_unsorted(self):
        power = self.rows(9)
        before = power.copy()
        noise.noise_floor_estimates(power)
        assert power.tobytes() == before.tobytes()
