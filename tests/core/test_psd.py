"""Unit tests for spectral estimation (the periodogram and its tapers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.psd import WINDOW_NAMES, periodogram, window_coefficients
from repro.signals.timeseries import TimeSeries
from signal_helpers import constant, sine


class TestWindowCoefficients:
    def test_rectangular_is_all_ones(self):
        np.testing.assert_allclose(window_coefficients("rectangular", 8), 1.0)

    def test_hann_tapers_to_zero(self):
        taper = window_coefficients("hann", 16)
        assert taper[0] == pytest.approx(0.0)
        assert taper[8] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("name", ["kaiser", "hamming", "blackman", "hanning"])
    def test_unknown_window_rejected(self, name):
        with pytest.raises(ValueError, match="'rectangular', 'hann'"):
            window_coefficients(name, 8)  # type: ignore[arg-type]

    def test_window_names(self):
        assert WINDOW_NAMES == ("rectangular", "hann")

    def test_length_one(self):
        np.testing.assert_allclose(window_coefficients("hann", 1), [1.0])

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            window_coefficients("hann", 0)

    @pytest.mark.parametrize("length", [16, 17, 90])
    def test_hann_is_shared_read_only(self, length):
        taper = window_coefficients("hann", length)
        assert taper.tobytes() == np.hanning(length).tobytes()
        assert window_coefficients("hann", length) is taper
        with pytest.raises(ValueError, match="read-only"):
            taper[0] = 1.0


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
        assert float(np.sum(spectrum.power)) == pytest.approx(np.mean(series.values ** 2),
                                                              rel=1e-6)

    def test_two_tone_has_two_peaks(self, two_tone):
        spectrum = periodogram(two_tone).without_dc()
        order = np.argsort(spectrum.power)[::-1][:2]
        peaks = sorted(spectrum.frequencies[order])
        assert peaks[0] == pytest.approx(400.0, abs=1.5)
        assert peaks[1] == pytest.approx(440.0, abs=1.5)

    def test_constant_signal_energy_in_dc_only(self):
        series = constant(5.0, 10.0, 10.0)
        spectrum = periodogram(series)
        assert spectrum.total_energy() == pytest.approx(0.0, abs=1e-12)
        assert spectrum.power[0] > 0

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


class TestDegenerateTaperedWindow:
    """Regression: a length-2 tapered window (hanning(2) == [0, 0]) used to
    produce a NaN spectrum with a RuntimeWarning; it must now fail clearly."""

    def test_periodogram_length_two_hann_raises(self):
        with pytest.raises(ValueError, match="window"):
            periodogram(TimeSeries([1.0, 2.0], 1.0), window="hann")

    def test_rectangular_length_two_still_works(self):
        spectrum = periodogram(TimeSeries([1.0, 2.0], 1.0), window="rectangular")
        assert np.all(np.isfinite(spectrum.power))

    def test_batch_periodogram_length_two_still_works(self):
        from repro.core.psd import batch_periodogram
        batch = batch_periodogram(np.array([[1.0, 2.0], [3.0, -1.0]]), 1.0)
        for index, row in enumerate(([1.0, 2.0], [3.0, -1.0])):
            expected = periodogram(TimeSeries(row, 1.0), window="rectangular")
            np.testing.assert_allclose(batch.row(index).power, expected.power, atol=1e-12)

    def test_longer_tapered_windows_unaffected(self):
        series = sine(1.0, duration=0.5, sampling_rate=16.0)
        spectrum = periodogram(series, window="hann")
        assert len(series) == 8
        assert np.all(np.isfinite(spectrum.power))
