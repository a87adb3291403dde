"""Unit tests for the FFT low-pass reconstruction filter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.signals import filters
from repro.signals.generators import multi_tone
from repro.signals.timeseries import TimeSeries
from signal_helpers import sine


class TestFftFilters:
    def test_low_pass_removes_high_tone(self):
        series = multi_tone([1.0, 20.0], duration=4.0, sampling_rate=100.0)
        filtered = filters.low_pass_fft(series, cutoff_hz=5.0)
        reference = sine(1.0, duration=4.0, sampling_rate=100.0)
        assert np.max(np.abs(filtered.values - reference.values)) < 0.05

    def test_low_pass_residual_is_the_high_tone(self):
        # What the low-pass removes is exactly the content above the cut-off.
        series = multi_tone([1.0, 20.0], duration=4.0, sampling_rate=100.0)
        residual = series.values - filters.low_pass_fft(series, 5.0).values
        reference = sine(20.0, duration=4.0, sampling_rate=100.0)
        assert np.max(np.abs(residual - reference.values)) < 0.05

    def test_low_pass_keeps_dc(self):
        series = sine(10.0, 2.0, 100.0, offset=7.0)
        filtered = filters.low_pass_fft(series, cutoff_hz=1.0)
        assert filtered.mean() == pytest.approx(7.0, abs=0.01)

    def test_low_pass_rejects_negative_cutoff(self, sine_1hz):
        with pytest.raises(ValueError):
            filters.low_pass_fft(sine_1hz, -1.0)

    def test_low_pass_empty_series(self):
        empty = TimeSeries(np.empty(0), 1.0)
        assert len(filters.low_pass_fft(empty, 1.0)) == 0
