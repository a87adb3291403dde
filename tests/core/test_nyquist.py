"""Unit tests for the Section 3.2 Nyquist-rate estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.nyquist import (ALIASED_SENTINEL, MIN_SAMPLES, NyquistEstimator, detrended,
                                detrended_rows, estimate_nyquist_rate)
from repro.core.psd import periodogram
from repro.signals.spectrum import Spectrum
from repro.signals.generators import constant, sine
from repro.signals.noise import add_white_noise
from repro.signals.timeseries import IrregularTimeSeries, TimeSeries
from signal_helpers import band_limited_noise, white_noise


class TestEstimatorOnKnownSignals:
    def test_pure_tone(self):
        series = sine(5.0, duration=10.0, sampling_rate=100.0)
        estimate = estimate_nyquist_rate(series)
        assert estimate.reliable
        assert estimate.nyquist_rate == pytest.approx(10.0, rel=0.05)

    def test_two_tone_uses_highest_component(self, two_tone):
        estimate = estimate_nyquist_rate(two_tone)
        assert estimate.nyquist_rate == pytest.approx(880.0, rel=0.02)

    def test_band_limited_noise(self, rng):
        series = band_limited_noise(4.0, duration=20.0, sampling_rate=100.0, rng=rng)
        estimate = estimate_nyquist_rate(series)
        assert estimate.reliable
        assert 6.0 <= estimate.nyquist_rate <= 9.0

    def test_slow_metric_large_reduction_ratio(self, slow_metric_trace):
        estimate = estimate_nyquist_rate(slow_metric_trace)
        assert estimate.reliable
        assert estimate.reduction_ratio > 50

    def test_white_noise_offers_no_headroom(self, rng):
        # A full-band signal must never be reported as meaningfully
        # over-sampled: either the estimator refuses (strict "all bins"
        # rule) or the cut-off sits essentially at the band edge.
        series = white_noise(100.0, 10.0, std=1.0, rng=rng)
        estimate = estimate_nyquist_rate(series)
        if estimate.reliable:
            assert estimate.reduction_ratio < 1.3
        else:
            assert estimate.nyquist_rate == ALIASED_SENTINEL
            assert math.isnan(estimate.reduction_ratio)

    def test_white_noise_flagged_with_band_fraction_rule(self, rng):
        series = white_noise(100.0, 10.0, std=1.0, rng=rng)
        estimate = NyquistEstimator(aliased_band_fraction=0.9).estimate(series)
        assert not estimate.reliable
        assert estimate.nyquist_rate == ALIASED_SENTINEL

    def test_constant_trace_gets_minimal_rate(self):
        series = constant(42.0, duration=1000.0, sampling_rate=1.0)
        estimate = estimate_nyquist_rate(series)
        assert estimate.reliable
        assert estimate.reason == "constant trace"
        assert estimate.nyquist_rate == pytest.approx(1.0 / series.duration)
        assert estimate.reduction_ratio > 100

    def test_tone_with_mild_noise_still_estimated(self, rng):
        series = sine(2.0, duration=20.0, sampling_rate=100.0, amplitude=5.0)
        noisy = add_white_noise(series, 0.05, rng=rng)
        estimate = estimate_nyquist_rate(noisy)
        assert estimate.reliable
        assert estimate.nyquist_rate == pytest.approx(4.0, rel=0.3)

    def test_short_trace_rejected(self):
        series = sine(1.0, duration=1.0, sampling_rate=8.0)
        estimate = estimate_nyquist_rate(series)
        assert not estimate.reliable
        assert estimate.reason == "trace too short"

    def test_irregular_trace_is_regularized_first(self, rng):
        series = sine(1.0, duration=30.0, sampling_rate=20.0)
        timestamps = series.times() + rng.normal(scale=0.005, size=len(series))
        irregular = IrregularTimeSeries(np.sort(timestamps), series.values)
        estimate = estimate_nyquist_rate(irregular)
        assert estimate.reliable
        assert estimate.nyquist_rate == pytest.approx(2.0, rel=0.2)


class TestEstimateProperties:
    def test_oversampled_flag(self, sine_1hz):
        estimate = estimate_nyquist_rate(sine_1hz)
        assert estimate.reliable
        assert estimate.oversampled

    def test_reduction_ratio_matches_rates(self, sine_1hz):
        estimate = estimate_nyquist_rate(sine_1hz)
        assert estimate.reduction_ratio == pytest.approx(
            estimate.current_rate / estimate.nyquist_rate)

    def test_estimate_never_exceeds_current_rate(self, slow_metric_trace, two_tone):
        for series in (slow_metric_trace, two_tone):
            estimate = estimate_nyquist_rate(series)
            assert estimate.nyquist_rate <= estimate.current_rate + 1e-9

    def test_broadband_trace_is_refused_as_aliased(self, rng):
        series = white_noise(100.0, 10.0, rng=rng)
        estimate = NyquistEstimator(aliased_band_fraction=0.9).estimate(series)
        assert not estimate.reliable
        assert estimate.reason == "all bins needed"


class TestComputeSpectrum:
    """The estimator reads the periodogram, detrended first when configured."""

    def test_is_the_periodogram(self, sine_1hz):
        spectrum = NyquistEstimator().compute_spectrum(sine_1hz)
        np.testing.assert_array_equal(spectrum.power, periodogram(sine_1hz).power)

    def test_detrend_then_taper(self, sine_1hz):
        ramped = sine_1hz.with_values(sine_1hz.values + 0.5 * np.arange(len(sine_1hz)))
        spectrum = NyquistEstimator(detrend=True, window="hann").compute_spectrum(ramped)
        expected = periodogram(ramped.with_values(detrended(ramped.values)), window="hann")
        np.testing.assert_array_equal(spectrum.power, expected.power)


class TestEstimatorConfiguration:
    def test_rejects_bad_energy_fraction(self):
        with pytest.raises(ValueError):
            NyquistEstimator(energy_fraction=0.0)
        with pytest.raises(ValueError):
            NyquistEstimator(energy_fraction=1.5)

    @pytest.mark.parametrize("window", ["hanning", "hamming", "blackman", "Hann"])
    def test_rejects_unknown_window_at_construction(self, window):
        """An unknown taper fails when the estimator is built, not at its
        first estimate, and the message names both supported windows."""
        with pytest.raises(ValueError, match=r"\['rectangular', 'hann'\]") as error:
            NyquistEstimator(window=window)  # type: ignore[arg-type]
        assert repr(window) in str(error.value)

    def test_shortest_accepted_trace(self):
        assert NyquistEstimator.min_samples == MIN_SAMPLES == 16
        values = np.sin(2 * np.pi * np.arange(MIN_SAMPLES) / 8.0)
        accepted = NyquistEstimator().estimate(TimeSeries(values, 1.0))
        refused = NyquistEstimator().estimate(TimeSeries(values[:-1], 1.0))
        assert accepted.reason != "trace too short"
        assert not refused.reliable and refused.reason == "trace too short"

    def test_rejects_bad_band_fraction(self):
        with pytest.raises(ValueError):
            NyquistEstimator(aliased_band_fraction=0.0)

    def test_spectrum_without_energy_is_unreliable(self):
        silent = Spectrum(np.linspace(0.0, 5.0, 11), np.zeros(11), 10.0)
        estimate = NyquistEstimator().estimate_from_spectrum(silent)
        assert not estimate.reliable
        assert estimate.reason == "no spectral energy"

    def test_higher_energy_fraction_gives_higher_estimate(self, rng):
        series = add_white_noise(
            sine(1.0, duration=60.0, sampling_rate=50.0, amplitude=5.0), 0.15, rng=rng)
        low = NyquistEstimator(energy_fraction=0.99).estimate(series)
        high = NyquistEstimator(energy_fraction=0.9999).estimate(series)
        if low.reliable and high.reliable:
            assert high.nyquist_rate >= low.nyquist_rate

    def test_include_dc_changes_accounting(self):
        # With a huge DC offset and include_dc=True, the DC bin alone
        # captures 99% of the energy, so the cut-off collapses to the
        # lowest frequencies.
        series = sine(5.0, duration=10.0, sampling_rate=100.0, amplitude=0.1, offset=1000.0)
        without_dc = NyquistEstimator(include_dc=False).estimate(series)
        with_dc = NyquistEstimator(include_dc=True).estimate(series)
        assert without_dc.nyquist_rate == pytest.approx(10.0, rel=0.1)
        assert with_dc.nyquist_rate < without_dc.nyquist_rate

    def test_detrend_suppresses_leakage_from_trend(self):
        # A linear ramp plus a slow tone: without detrending the ramp's
        # leakage inflates the estimate.
        n = 512
        ramp = np.linspace(0.0, 50.0, n)
        tone = 2.0 * np.sin(2 * np.pi * 0.01 * np.arange(n))
        series = TimeSeries(ramp + tone, 1.0)
        plain = NyquistEstimator().estimate(series)
        detrended = NyquistEstimator(detrend=True, window="hann").estimate(series)
        assert detrended.nyquist_rate <= plain.nyquist_rate
        assert detrended.nyquist_rate == pytest.approx(0.02, rel=0.5)

    def test_only_an_exactly_flat_trace_is_constant(self):
        values = 100.0 + 0.0001 * np.sin(np.linspace(0, 20 * np.pi, 200))
        wobble = NyquistEstimator().estimate(TimeSeries(values, 1.0))
        flat = NyquistEstimator().estimate(TimeSeries(np.full(200, 100.0), 1.0))
        assert wobble.reliable and wobble.reason == ""
        assert flat.reason == "constant trace"

    @pytest.mark.parametrize("fraction, cutoff", [(0.5, 1.0), (0.9, 2.0), (0.98, 4.0),
                                                  (0.99, None)])
    def test_cutoff_search_on_a_known_spectrum(self, fraction, cutoff):
        # Non-DC cumulative fractions: 0.8 @1Hz, 0.9 @2Hz, 0.95 @3Hz, 0.98 @4Hz,
        # 1.0 @5Hz; needing the last bin is the "record -1" refusal.
        spectrum = Spectrum(np.arange(6.0), np.array([100.0, 8.0, 1.0, 0.5, 0.3, 0.2]), 10.0)
        estimate = NyquistEstimator(energy_fraction=fraction, aliased_band_fraction=1.0) \
            .estimate_from_spectrum(spectrum)
        assert estimate.cutoff_frequency == (pytest.approx(cutoff) if cutoff else None)
        assert estimate.reliable == (cutoff is not None)

    def test_estimate_from_spectrum_direct(self, sine_1hz):
        estimator = NyquistEstimator()
        spectrum = estimator.compute_spectrum(sine_1hz)
        estimate = estimator.estimate_from_spectrum(spectrum)
        assert estimate.nyquist_rate == pytest.approx(2.0, rel=0.1)

    def test_aliased_band_fraction_flags_near_edge_energy(self, rng):
        # Noise-dominated trace: with a strict rule it may squeak through,
        # with a 0.9 band fraction it must be flagged.
        series = white_noise(200.0, 5.0, std=1.0, rng=rng)
        strict = NyquistEstimator(aliased_band_fraction=1.0).estimate(series)
        loose = NyquistEstimator(aliased_band_fraction=0.9).estimate(series)
        assert not loose.reliable
        if strict.reliable:
            assert strict.reduction_ratio < 1.3


def polyfit_detrended(values: np.ndarray) -> np.ndarray:
    """The per-trace reference: ``values`` minus its ``np.polyfit`` line."""
    x = np.arange(values.shape[0], dtype=np.float64)
    slope, intercept = np.polyfit(x, values, 1)
    return values - (slope * x + intercept)


class TestDetrendOracle:
    """The shared-set-up detrend is ``np.polyfit`` per row, bit for bit."""

    @staticmethod
    def rows(n: int) -> np.ndarray:
        rng = np.random.default_rng(n)
        x = np.arange(n, dtype=np.float64)
        matrix = np.vstack([
            3.0 * x + 2.0,                               # exact ramp
            np.full(n, 5.0),                             # constant
            1e300 * rng.normal(size=n),                  # huge magnitude
            1e-300 * rng.normal(size=n),                 # tiny magnitude
            rng.normal(size=n).cumsum() + 0.01 * x,      # random walk with a trend
            rng.normal(size=n),
            rng.normal(size=n),
            rng.normal(size=n),
        ])
        matrix[5, n // 3] = np.nan
        matrix[6, n // 2] = np.inf
        matrix[7, 0] = -np.inf
        return matrix

    @pytest.mark.parametrize("n", [16, 17, 90, 576, 1440, 5760])
    def test_rows_equal_per_row_polyfit(self, n):
        matrix = self.rows(n)
        batched = detrended_rows(matrix)
        for index, row in enumerate(matrix):
            expected = polyfit_detrended(row).tobytes()
            assert batched[index].tobytes() == expected, f"row {index}"
            assert detrended(row).tobytes() == expected, f"row {index}"

    def test_strided_rows_and_empty_batch(self):
        matrix = self.rows(180)
        strided = detrended_rows(matrix[:, ::2])
        assert strided.tobytes() == detrended_rows(np.array(matrix[:, ::2])).tobytes()
        assert detrended_rows(np.empty((0, 32))).shape == (0, 32)


class TestCacheToken:
    """The token keys record stores: the setups the library runs must keep
    the exact strings earlier releases wrote, retired options included."""

    @pytest.mark.parametrize("estimator, token", [
        (NyquistEstimator(),
         "NyquistEstimator(energy_fraction=0.99, include_dc=False, psd_method='periodogram', "
         "min_samples=16, flat_tolerance=0.0, aliased_band_fraction=0.9, detrend=False, "
         "window='rectangular')"),
        (NyquistEstimator(energy_fraction=0.95, include_dc=True),
         "NyquistEstimator(energy_fraction=0.95, include_dc=True, psd_method='periodogram', "
         "min_samples=16, flat_tolerance=0.0, aliased_band_fraction=0.9, detrend=False, "
         "window='rectangular')"),
        (NyquistEstimator(detrend=True, window="hann", aliased_band_fraction=1.0),
         "NyquistEstimator(energy_fraction=0.99, include_dc=False, psd_method='periodogram', "
         "min_samples=16, flat_tolerance=0.0, aliased_band_fraction=1.0, detrend=True, "
         "window='hann')"),
    ], ids=["survey", "include-dc", "short-window"])
    def test_token_is_unchanged(self, estimator, token):
        assert estimator.cache_token() == token

