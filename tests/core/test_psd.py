"""Unit tests for spectral estimation (periodogram / Welch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.psd import periodogram, welch_psd, window_coefficients
from repro.signals.generators import constant, sine
from repro.signals.timeseries import TimeSeries


class TestWindowCoefficients:
    def test_rectangular_is_all_ones(self):
        np.testing.assert_allclose(window_coefficients("rectangular", 8), 1.0)

    def test_hann_tapers_to_zero(self):
        taper = window_coefficients("hann", 16)
        assert taper[0] == pytest.approx(0.0)
        assert taper[8] == pytest.approx(1.0, abs=0.05)

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError):
            window_coefficients("kaiser", 8)  # type: ignore[arg-type]

    def test_length_one(self):
        np.testing.assert_allclose(window_coefficients("hann", 1), [1.0])

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            window_coefficients("hann", 0)


class TestPeriodogram:
    def test_peak_at_tone_frequency(self):
        series = sine(5.0, duration=2.0, sampling_rate=100.0)
        spectrum = periodogram(series)
        assert spectrum.without_dc().dominant_frequency() == pytest.approx(5.0, abs=0.5)

    def test_bin_count(self):
        series = sine(1.0, duration=1.0, sampling_rate=64.0)
        spectrum = periodogram(series)
        assert len(spectrum) == 64 // 2 + 1

    def test_parseval_total_power(self):
        # Sum of one-sided PSD bins equals the mean squared value.
        series = sine(4.0, duration=1.0, sampling_rate=64.0, amplitude=2.0, offset=1.0)
        spectrum = periodogram(series)
        assert spectrum.total_energy(include_dc=True) == pytest.approx(series.power(), rel=1e-6)

    def test_two_tone_has_two_peaks(self, two_tone):
        spectrum = periodogram(two_tone).without_dc()
        order = np.argsort(spectrum.power)[::-1][:2]
        peaks = sorted(spectrum.frequencies[order])
        assert peaks[0] == pytest.approx(400.0, abs=1.5)
        assert peaks[1] == pytest.approx(440.0, abs=1.5)

    def test_constant_signal_energy_in_dc_only(self):
        series = constant(5.0, 10.0, 10.0)
        spectrum = periodogram(series)
        assert spectrum.total_energy(include_dc=False) == pytest.approx(0.0, abs=1e-12)
        assert spectrum.power[0] > 0

    def test_detrend_removes_dc(self):
        series = constant(5.0, 10.0, 10.0)
        spectrum = periodogram(series, detrend=True)
        assert spectrum.power[0] == pytest.approx(0.0, abs=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            periodogram(TimeSeries([1.0], 1.0))

    def test_hann_window_reduces_leakage(self):
        # A tone that is off-bin leaks; a Hann window confines the leakage.
        series = sine(5.3, duration=1.0, sampling_rate=100.0)
        rect = periodogram(series, window="rectangular").without_dc()
        hann = periodogram(series, window="hann").without_dc()
        # Fraction of energy within +/- 2 Hz of the tone:
        def near_tone(spec):
            return spec.band(3.3, 7.3).total_energy() / spec.total_energy()
        assert near_tone(hann) > near_tone(rect)


class TestWelch:
    def test_peak_at_tone_frequency(self):
        series = sine(5.0, duration=10.0, sampling_rate=100.0)
        spectrum = welch_psd(series, segment_length=256)
        assert spectrum.without_dc().dominant_frequency() == pytest.approx(5.0, abs=0.5)

    def test_segment_length_caps_at_series_length(self):
        series = sine(1.0, duration=1.0, sampling_rate=50.0)
        spectrum = welch_psd(series, segment_length=1024)
        assert len(spectrum) == len(series) // 2 + 1

    def test_rejects_bad_overlap(self):
        series = sine(1.0, 2.0, 50.0)
        with pytest.raises(ValueError):
            welch_psd(series, overlap=1.0)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            welch_psd(TimeSeries([1.0], 1.0))

    def test_rejects_one_sample_segments(self):
        series = sine(1.0, 2.0, 50.0)
        with pytest.raises(ValueError, match="segment_length"):
            welch_psd(series, segment_length=1)

    def test_trailing_samples_are_analysed(self):
        """Regression: Welch used to drop up to segment_length - 1 trailing
        samples when (n - segment_length) was not a multiple of the step.

        A burst placed entirely in the would-be-dropped tail must show up
        in the PSD.
        """
        n, segment_length = 100, 64
        # step = 32 -> stride starts at [0, 32]; samples 96..99 lie beyond
        # start 32 + 64 = 96 and were previously never windowed.
        values = np.zeros(n)
        values[97:] = 50.0
        spectrum = welch_psd(TimeSeries(values, 1.0), segment_length=segment_length,
                             detrend=False, window="rectangular")
        assert spectrum.total_energy(include_dc=True) > 1.0

    def test_end_anchored_segment_covers_all_data(self):
        """Every sample participates: a constant trace stays flat (pure DC)
        and the number of averaged segments includes the end-anchored one."""
        n, segment_length = 100, 64
        flat = welch_psd(TimeSeries(np.ones(n), 1.0), segment_length=segment_length,
                         detrend=False, window="rectangular")
        assert flat.total_energy(include_dc=False) == pytest.approx(0.0, abs=1e-12)
        assert flat.power[0] == pytest.approx(1.0)

    def test_exact_stride_has_no_extra_segment(self, rng):
        """When the stride lands exactly on the end, results are unchanged
        from the classic Welch segmentation."""
        values = rng.normal(size=96)
        series = TimeSeries(values, 1.0)
        spectrum = welch_psd(series, segment_length=64, overlap=0.5)  # starts 0, 32: covers 96
        manual = np.zeros(33)
        from repro.core.psd import window_coefficients
        taper = window_coefficients("hann", 64)
        for start in (0, 32):
            chunk = values[start:start + 64]
            chunk = chunk - np.mean(chunk)
            power = np.abs(np.fft.rfft(chunk * taper)) ** 2 / (64 * np.sum(taper ** 2))
            power[1:-1] *= 2.0
            manual += power
        np.testing.assert_allclose(spectrum.power, manual / 2, atol=1e-12)

    def test_variance_lower_than_periodogram(self, rng):
        from signal_helpers import white_noise
        series = white_noise(60.0, 20.0, std=1.0, rng=rng)
        raw = periodogram(series).without_dc()
        averaged = welch_psd(series, segment_length=128).without_dc()
        # For white noise the PSD should be flat; Welch averaging reduces
        # the bin-to-bin scatter relative to the mean level.
        raw_cv = np.std(raw.power) / np.mean(raw.power)
        averaged_cv = np.std(averaged.power) / np.mean(averaged.power)
        assert averaged_cv < raw_cv


class TestDegenerateTaperedWindow:
    """Regression: a length-2 tapered window (hanning(2) == [0, 0]) used to
    produce a NaN spectrum with a RuntimeWarning; it must now fail clearly."""

    def test_periodogram_length_two_hann_raises(self):
        with pytest.raises(ValueError, match="window"):
            periodogram(TimeSeries([1.0, 2.0], 1.0), window="hann")

    def test_welch_length_two_hann_raises(self):
        # n=2 resolves the default segment length to 2, and Welch's default
        # window is hann -- previously a silent all-NaN spectrum.
        with pytest.raises(ValueError, match="window"):
            welch_psd(TimeSeries([1.0, 2.0], 1.0))

    def test_welch_explicit_segment_length_two_raises(self):
        series = sine(1.0, duration=4.0, sampling_rate=16.0)
        with pytest.raises(ValueError, match="window"):
            welch_psd(series, segment_length=2, window="hann")

    def test_batch_periodogram_length_two_hann_raises(self):
        from repro.core.psd import batch_periodogram
        with pytest.raises(ValueError, match="window"):
            batch_periodogram(np.ones((3, 2)), 1.0, window="hann")

    def test_rectangular_length_two_still_works(self):
        spectrum = periodogram(TimeSeries([1.0, 2.0], 1.0), window="rectangular")
        assert np.all(np.isfinite(spectrum.power))

    def test_longer_tapered_windows_unaffected(self):
        series = sine(1.0, duration=4.0, sampling_rate=16.0)
        spectrum = welch_psd(series, segment_length=8, window="hann")
        assert np.all(np.isfinite(spectrum.power))
