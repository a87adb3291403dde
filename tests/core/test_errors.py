"""Unit tests for the reconstruction-error metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.errors import compare
from repro.signals.timeseries import TimeSeries
from reconstruction_oracle import compare_batch


def series(values, interval=1.0):
    return TimeSeries(np.asarray(values, float), interval)


class TestMetrics:
    def test_identical_series_all_zero(self, sine_1hz):
        bundle = compare(sine_1hz, sine_1hz)
        assert bundle.l2 == 0.0
        assert bundle.rmse == 0.0
        assert bundle.nrmse == 0.0
        assert bundle.max_abs == 0.0
        assert bundle.mean_abs == 0.0

    def test_l2_distance_known_value(self):
        assert compare(series([0.0, 0.0]), series([3.0, 4.0])).l2 == pytest.approx(5.0)

    def test_rmse_known_value(self):
        assert compare(series([0.0, 0.0]), series([2.0, 2.0])).rmse == pytest.approx(2.0)

    def test_nrmse_normalises_by_range(self):
        original = series([0.0, 10.0])
        shifted = series([1.0, 11.0])
        assert compare(original, shifted).nrmse == pytest.approx(0.1)

    def test_nrmse_constant_original(self):
        flat = series([5.0, 5.0])
        assert compare(flat, flat).nrmse == 0.0
        assert math.isnan(compare(flat, series([5.0, 6.0])).nrmse)

    def test_max_and_mean_abs(self):
        original = series([0.0, 0.0, 0.0])
        other = series([1.0, -2.0, 0.5])
        assert compare(original, other).max_abs == 2.0
        assert compare(original, other).mean_abs == pytest.approx(3.5 / 3.0)

    def test_length_mismatch_compares_overlap(self):
        longer = series([1.0, 2.0, 3.0, 4.0])
        shorter = series([1.0, 2.0, 3.0])
        assert compare(longer, shorter).l2 == 0.0

    def test_empty_comparison_rejected(self):
        with pytest.raises(ValueError):
            compare(series([]), series([]))


class TestCompareBundle:
    def test_bundle_matches_individual_metrics(self, sine_1hz):
        other = sine_1hz.with_values(sine_1hz.values + 0.5)
        bundle = compare(sine_1hz, other)
        diff = sine_1hz.values - other.values
        assert bundle.l2 == pytest.approx(np.linalg.norm(diff))
        assert bundle.rmse == pytest.approx(np.sqrt(np.mean(diff ** 2)))
        assert bundle.nrmse == pytest.approx(bundle.rmse / np.ptp(sine_1hz.values))
        assert bundle.max_abs == pytest.approx(0.5)
        assert bundle.samples_compared == len(sine_1hz)


class TestCompareBatch:
    """The oracle's ``compare_batch`` is the row-wise ``compare``."""

    def test_rows_match_scalar_compare(self, rng):
        original = rng.normal(size=(5, 40))
        reconstructed = original + rng.normal(scale=0.1, size=(5, 40))
        nrmse_rows, max_abs_rows = compare_batch(original, reconstructed)
        for index in range(5):
            scalar = compare(series(original[index]), series(reconstructed[index]))
            assert nrmse_rows[index] == pytest.approx(scalar.nrmse, rel=1e-12)
            assert max_abs_rows[index] == pytest.approx(scalar.max_abs, rel=1e-12)

    def test_trims_to_common_column_count(self):
        original = np.array([[0.0, 1.0, 2.0, 3.0]])
        reconstructed = np.array([[0.0, 1.0, 2.0]])
        nrmse_rows, max_abs_rows = compare_batch(original, reconstructed)
        assert nrmse_rows.tolist() == [0.0]
        assert max_abs_rows.tolist() == [0.0]

    def test_constant_row_is_zero_when_exact_and_nan_otherwise(self):
        flat = np.full((2, 3), 5.0)
        nrmse_rows, _ = compare_batch(flat, np.array([[5.0, 5.0, 5.0], [5.0, 6.0, 5.0]]))
        assert nrmse_rows[0] == 0.0
        assert math.isnan(nrmse_rows[1])

    @pytest.mark.parametrize("original, reconstructed, message", [
        (np.zeros(4), np.zeros((1, 4)), "matrices"),
        (np.zeros((2, 4)), np.zeros((3, 4)), "row counts"),
        (np.zeros((2, 0)), np.zeros((2, 4)), "empty"),
    ], ids=["not-a-matrix", "row-mismatch", "no-columns"])
    def test_rejects_bad_shapes(self, original, reconstructed, message):
        with pytest.raises(ValueError, match=message):
            compare_batch(original, reconstructed)
