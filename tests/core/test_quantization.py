"""Unit tests for quantisation and quantisation-noise accounting."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.errors import compare
from repro.core.quantization import UniformQuantizer
from repro.signals.timeseries import TimeSeries
from signal_helpers import sine


class TestUniformQuantizer:
    def test_rounds_to_step(self):
        quantizer = UniformQuantizer(step=0.5)
        np.testing.assert_allclose(quantizer.apply(np.array([0.1, 0.3, 0.74, 1.1])),
                                   [0.0, 0.5, 0.5, 1.0])

    def test_clipping(self):
        quantizer = UniformQuantizer(step=1.0, minimum=0.0, maximum=5.0)
        np.testing.assert_allclose(quantizer.apply(np.array([-3.0, 7.2])), [0.0, 5.0])

    def test_apply_series_preserves_timing(self, sine_1hz):
        quantizer = UniformQuantizer(step=0.25)
        quantized = quantizer.apply_series(sine_1hz)
        assert quantized.interval == sine_1hz.interval
        assert np.max(np.abs(quantized.values - sine_1hz.values)) <= 0.125 + 1e-12

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            UniformQuantizer(step=0.0)
        with pytest.raises(ValueError):
            UniformQuantizer(step=-1.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(ValueError, match="finite"):
            UniformQuantizer(step=step)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformQuantizer(step=1.0, minimum=5.0, maximum=1.0)

    def test_quantization_is_idempotent(self, sine_1hz):
        quantizer = UniformQuantizer(step=0.5)
        once = quantizer.apply_series(sine_1hz)
        twice = quantizer.apply_series(once)
        np.testing.assert_allclose(once.values, twice.values)

    def test_apply_series_lands_on_the_grid(self, sine_1hz):
        quantized = UniformQuantizer(0.5).apply_series(sine_1hz)
        assert np.all(np.abs(quantized.values / 0.5 - np.round(quantized.values / 0.5)) < 1e-9)

    def test_measured_quantization_error_matches_model(self, rng):
        # Empirical RMS error of quantising noise-like data approaches step/sqrt(12).
        values = rng.uniform(0.0, 100.0, size=20000)
        series = TimeSeries(values, 1.0)
        quantized = UniformQuantizer(1.0).apply_series(series)
        empirical = float(np.std(series.values - quantized.values))
        assert empirical == pytest.approx(1.0 / math.sqrt(12.0), rel=0.05)

    def test_finer_step_gives_smaller_error(self):
        series = sine(1.0, 10.0, 50.0, amplitude=10.0)
        fine = compare(series, UniformQuantizer(0.01).apply_series(series))
        coarse = compare(series, UniformQuantizer(5.0).apply_series(series))
        assert fine.rmse < coarse.rmse
        # A fine step stays within the uniform-error model's RMS.
        assert fine.rmse == pytest.approx(0.01 / math.sqrt(12.0), rel=0.1)
