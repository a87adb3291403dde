"""Unit tests for the ergodicity analysis (Section 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ergodicity import (ensemble_statistics, ergodicity_gap, ergodicity_report,
                                   minimum_canary_size, time_statistics)
from repro.signals.timeseries import TimeSeries
from signal_helpers import sine


def ergodic_fleet(n_devices=20, n_samples=500, rng=None):
    """Devices that are phase-shifted copies of the same process (ergodic-ish)."""
    rng = rng or np.random.default_rng(3)
    fleet = []
    for _ in range(n_devices):
        phase = rng.uniform(0, 2 * np.pi)
        values = 50.0 + 10.0 * np.sin(np.linspace(0, 40 * np.pi, n_samples) + phase)
        fleet.append(TimeSeries(values, 60.0))
    return fleet


def non_ergodic_fleet(n_devices=20, n_samples=500, rng=None):
    """Devices with wildly different fixed levels (time averages never converge)."""
    rng = rng or np.random.default_rng(4)
    return [TimeSeries(np.full(n_samples, float(level)), 60.0)
            for level in rng.uniform(10.0, 90.0, size=n_devices)]


class TestStatistics:
    def test_ensemble_statistics_keys(self):
        stats = ensemble_statistics(ergodic_fleet())
        assert set(stats) == {"mean", "std", "p50", "p95"}

    def test_ensemble_statistics_slice_the_middle_instant(self):
        fleet = ergodic_fleet()
        middle = min(len(series) for series in fleet) // 2
        assert ensemble_statistics(fleet)["mean"] == pytest.approx(
            np.mean([series.values[middle] for series in fleet]))

    def test_ensemble_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            ensemble_statistics([])

    def test_ensemble_rejects_empty_traces(self):
        with pytest.raises(ValueError, match="non-empty"):
            ensemble_statistics([TimeSeries([], 60.0), TimeSeries([1.0], 60.0)])

    def test_time_statistics_rejects_empty_series(self):
        with pytest.raises(ValueError, match="empty"):
            time_statistics(TimeSeries([], 60.0))

    def test_time_statistics_duration_prefix(self):
        series = sine(0.1, duration=100.0, sampling_rate=10.0, offset=5.0)
        full = time_statistics(series)
        prefix = time_statistics(series, duration=10.0)
        assert full["mean"] == pytest.approx(5.0, abs=0.1)
        assert set(prefix) == set(full)


class TestErgodicityGap:
    def test_ergodic_fleet_has_small_gap(self):
        gap = ergodicity_gap(ergodic_fleet())
        assert gap < 0.1

    def test_non_ergodic_fleet_has_large_gap_for_some_device(self):
        fleet = non_ergodic_fleet()
        gaps = [ergodicity_gap(fleet, device_index=i) for i in range(len(fleet))]
        assert max(gaps) > 0.3

    def test_rejects_bad_device_index(self):
        with pytest.raises(ValueError):
            ergodicity_gap(ergodic_fleet(), device_index=999)

    def test_report_structure(self):
        report = ergodicity_report(ergodic_fleet(), fractions=(0.25, 0.5, 1.0))
        assert len(report.durations) == 3
        assert len(report.gaps) == 3
        assert report.durations[-1] > report.durations[0]

    def test_report_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one trace"):
            ergodicity_report([])

    def test_report_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            ergodicity_report(ergodic_fleet(), fractions=(0.0,))

    def test_converged_duration(self):
        report = ergodicity_report(ergodic_fleet(), fractions=(0.5, 1.0))
        assert report.converged_duration(tolerance=0.2) is not None
        non_ergodic = ergodicity_report(non_ergodic_fleet(), device_index=0,
                                        fractions=(0.5, 1.0))
        # A constant device far from the fleet mean never converges.
        if non_ergodic.gaps[-1] > 0.2:
            assert non_ergodic.converged_duration(tolerance=0.2) is None


class TestCanarySize:
    def test_homogeneous_fleet_needs_small_canary(self):
        fleet = [TimeSeries(np.full(100, 50.0), 60.0) for _ in range(30)]
        assert minimum_canary_size(fleet, tolerance=0.01) == 1

    def test_heterogeneous_fleet_needs_larger_canary(self):
        fleet = non_ergodic_fleet(n_devices=30)
        size = minimum_canary_size(fleet, tolerance=0.05, rng=np.random.default_rng(0))
        assert size > 3

    def test_default_draws_are_reproducible(self):
        fleet = non_ergodic_fleet(n_devices=30)
        assert minimum_canary_size(fleet) == minimum_canary_size(fleet)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            minimum_canary_size(ergodic_fleet(), tolerance=0.0)
