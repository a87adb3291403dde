"""Unit tests for the TimeSeries / IrregularTimeSeries containers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.signals.timeseries import IrregularTimeSeries, TimeSeries


def make_series(n=10, interval=1.0, start=0.0):
    return TimeSeries(np.arange(n, dtype=float), interval, start_time=start, name="t")


class TestTimeSeriesConstruction:
    def test_basic_properties(self):
        series = make_series(10, interval=0.5)
        assert len(series) == 10
        assert series.sampling_rate == pytest.approx(2.0)
        assert series.duration == pytest.approx(5.0)
        assert series.end_time == pytest.approx(5.0)

    def test_values_are_float64(self):
        series = TimeSeries([1, 2, 3], 1.0)
        assert series.values.dtype == np.float64

    def test_accepts_list_input(self):
        series = TimeSeries([1.0, 2.0], 2.0)
        assert len(series) == 2

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], 0.0)
        with pytest.raises(ValueError):
            TimeSeries([1.0], -1.0)

    def test_rejects_infinite_interval(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], math.inf)

    def test_rejects_2d_values(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((2, 2)), 1.0)

    def test_rejects_non_finite_start(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], 1.0, start_time=math.nan)

    def test_empty_series(self):
        series = TimeSeries(np.empty(0), 1.0)
        assert len(series) == 0
        assert series.duration == 0.0


class TestTimeSeriesStatistics:
    def test_mean_std_min_max(self):
        series = make_series(5)
        assert series.mean() == pytest.approx(2.0)
        assert series.min() == 0.0
        assert series.max() == 4.0
        assert series.value_range() == 4.0
        assert series.std() == pytest.approx(np.std([0, 1, 2, 3, 4]))

    def test_empty_series_stats_are_nan(self):
        series = TimeSeries(np.empty(0), 1.0)
        assert math.isnan(series.mean())
        assert series.value_range() == 0.0


class TestTimeSeriesTiming:
    def test_times(self):
        series = make_series(3, interval=2.0, start=10.0)
        np.testing.assert_allclose(series.times(), [10.0, 12.0, 14.0])

    def test_iter_windows_covers_series(self):
        series = make_series(10)
        windows = list(series.iter_windows(5.0, 5.0))
        assert len(windows) == 2
        assert all(len(window) == 5 for window in windows)

    def test_iter_windows_with_overlap(self):
        series = make_series(10)
        windows = list(series.iter_windows(4.0, 2.0))
        assert len(windows) == 4
        assert windows[1].start_time == pytest.approx(2.0)

    def test_iter_windows_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(make_series(10).iter_windows(0.0, 1.0))

    @pytest.mark.parametrize("window, step", [
        (math.nan, 1.0), (math.inf, 1.0), (4.0, math.nan), (4.0, math.inf),
    ])
    def test_window_bounds_reject_non_finite_args(self, window, step):
        """NaN would yield no window at all, and an infinite step one."""
        with pytest.raises(ValueError, match="finite"):
            list(make_series(10).iter_window_bounds(window, step))


class TestTimeSeriesTransforms:
    def test_with_values_keeps_timing(self):
        series = make_series(3, interval=2.0)
        updated = series.with_values([9.0, 9.0, 9.0])
        assert updated.interval == 2.0
        np.testing.assert_allclose(updated.values, 9.0)

    def test_head(self):
        series = make_series(6, start=3.0)
        head = series.head(2)
        np.testing.assert_allclose(head.values, [0.0, 1.0])
        assert head.start_time == pytest.approx(3.0)

    def test_head_rejects_negative(self):
        with pytest.raises(ValueError):
            make_series(3).head(-1)

    def test_segment(self):
        segment = make_series(10).segment(3, 6)
        np.testing.assert_allclose(segment.values, [3.0, 4.0, 5.0])
        assert segment.start_time == pytest.approx(3.0)

    def test_segment_clamps_to_length(self):
        segment = make_series(4).segment(2, 100)
        assert len(segment) == 2

    @pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2)])
    def test_segment_rejects_invalid_bounds(self, start, stop):
        with pytest.raises(ValueError, match="segment bounds"):
            make_series(5).segment(start, stop)

    def test_decimate(self):
        decimated = make_series(10).decimate(3)
        np.testing.assert_allclose(decimated.values, [0.0, 3.0, 6.0, 9.0])
        assert decimated.interval == pytest.approx(3.0)

    def test_decimate_factor_one_is_identity(self):
        series = make_series(5)
        assert len(series.decimate(1)) == 5

    def test_decimate_rejects_zero(self):
        with pytest.raises(ValueError):
            make_series(5).decimate(0)

    def test_concatenate(self):
        joined = make_series(3).concatenate(make_series(2))
        assert len(joined) == 5

    def test_concatenate_rejects_different_interval(self):
        with pytest.raises(ValueError):
            make_series(3, interval=1.0).concatenate(make_series(3, interval=2.0))


class TestIrregularTimeSeries:
    def test_sorts_by_timestamp(self):
        series = IrregularTimeSeries([3.0, 1.0, 2.0], [30.0, 10.0, 20.0])
        np.testing.assert_allclose(series.timestamps, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(series.values, [10.0, 20.0, 30.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            IrregularTimeSeries([1.0, 2.0], [1.0])

    def test_median_interval(self):
        series = IrregularTimeSeries([0.0, 1.0, 2.1, 3.0], [0.0] * 4)
        assert series.median_interval() == pytest.approx(1.0, abs=0.2)

    def test_median_interval_requires_two_samples(self):
        with pytest.raises(ValueError):
            IrregularTimeSeries([1.0], [1.0]).median_interval()

    def test_median_interval_rejects_a_single_timestamp(self):
        with pytest.raises(ValueError, match="same timestamp"):
            IrregularTimeSeries([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]).median_interval()

    def test_dedupe_keeps_first(self):
        series = IrregularTimeSeries([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 99.0, 2.0])
        deduped = series.dedupe()
        assert len(deduped) == 3
        assert 99.0 not in deduped.values

    def test_start_and_end_time(self):
        series = IrregularTimeSeries([15.0, 5.0], [0.0, 1.0])
        assert (series.start_time, series.end_time) == (5.0, 15.0)
