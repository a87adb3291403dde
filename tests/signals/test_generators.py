"""Unit tests for the synthetic signal generators."""

from __future__ import annotations

import pytest

from repro.signals import generators
from signal_helpers import band_limited_noise, constant, sine


class TestTimeAxis:
    def test_sample_count(self):
        series = constant(1.0, duration=10.0, sampling_rate=5.0)
        assert len(series) == 50
        assert series.interval == pytest.approx(0.2)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            constant(1.0, duration=0.0, sampling_rate=5.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            constant(1.0, duration=1.0, sampling_rate=0.0)


class TestBasicWaveforms:
    def test_constant_is_flat(self):
        series = constant(3.5, 1.0, 10.0)
        assert series.value_range() == 0.0
        assert series.mean() == pytest.approx(3.5)

    def test_sine_amplitude_and_offset(self):
        series = sine(2.0, duration=5.0, sampling_rate=100.0,
                                 amplitude=3.0, offset=10.0)
        assert series.max() <= 13.0 + 1e-9
        assert series.min() >= 7.0 - 1e-9
        assert series.mean() == pytest.approx(10.0, abs=0.05)

    def test_sine_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            sine(-1.0, 1.0, 10.0)

    def test_sine_frequency_is_where_the_energy_is(self):
        from repro.core.psd import periodogram
        series = sine(5.0, duration=2.0, sampling_rate=100.0)
        spectrum = periodogram(series)
        assert spectrum.without_dc().dominant_frequency() == pytest.approx(5.0, abs=0.5)

    def test_multi_tone_length_checks(self):
        with pytest.raises(ValueError):
            generators.multi_tone([], 1.0, 10.0)
        with pytest.raises(ValueError):
            generators.multi_tone([1.0, 2.0], 1.0, 10.0, amplitudes=[1.0])

    def test_two_tone_figure3_has_880hz_nyquist(self):
        from repro.core.nyquist import estimate_nyquist_rate
        series = generators.two_tone_figure3()
        estimate = estimate_nyquist_rate(series)
        assert estimate.reliable
        assert estimate.nyquist_rate == pytest.approx(880.0, rel=0.01)


class TestNoiseLikeGenerators:
    def test_band_limited_noise_respects_band(self, rng):
        from repro.core.psd import periodogram
        series = band_limited_noise(5.0, duration=10.0, sampling_rate=100.0, rng=rng)
        spectrum = periodogram(series)
        in_band = spectrum.energy_fraction_below(5.5)
        assert in_band > 0.99

    def test_band_limited_noise_amplitude(self, rng):
        series = band_limited_noise(5.0, 10.0, 100.0, amplitude=3.0, rng=rng)
        assert series.max() <= 3.0 + 1e-9
        assert series.min() >= -3.0 - 1e-9

    def test_band_limited_noise_rejects_band_above_nyquist(self, rng):
        with pytest.raises(ValueError):
            band_limited_noise(60.0, 1.0, 100.0, rng=rng)
