"""Unit tests for low-pass reconstruction and the Nyquist round trip (Figure 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nyquist import NyquistEstimator
from repro.core.quantization import UniformQuantizer
from repro.core.reconstruction import nyquist_round_trip, reconstruct, upsample_to_length
from repro.core.resampling import decimation_factor, resample_to_rate
from repro.signals.generators import multi_tone
from repro.signals.timeseries import TimeSeries
from signal_helpers import constant, sine
from reconstruction_oracle import reconstruct_batch


class TestUpsample:
    def test_band_limited_upsample_is_exact(self):
        sparse = sine(2.0, duration=2.0, sampling_rate=20.0)
        dense = sine(2.0, duration=2.0, sampling_rate=200.0)
        recovered = upsample_to_length(sparse, len(dense))
        assert np.max(np.abs(recovered.values - dense.values)) < 0.01

    def test_quantizer_applied(self):
        sparse = sine(1.0, duration=2.0, sampling_rate=20.0, amplitude=3.0)
        quantizer = UniformQuantizer(step=0.5)
        recovered = upsample_to_length(sparse, 100, quantizer=quantizer)
        steps = recovered.values / 0.5
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)

    def test_cutoff_removes_high_content(self):
        sparse = multi_tone([1.0, 8.0], duration=2.0, sampling_rate=40.0)
        recovered = upsample_to_length(sparse, 400, cutoff_hz=2.0)
        reference = sine(1.0, duration=2.0, sampling_rate=200.0)
        assert np.max(np.abs(recovered.values - reference.values)) < 0.05


class TestReconstruct:
    def test_round_trip_at_original_rate(self, two_tone):
        downsampled = resample_to_rate(two_tone, 1000.0)
        reconstructed = reconstruct(downsampled, two_tone.sampling_rate)
        assert reconstructed.sampling_rate == pytest.approx(two_tone.sampling_rate)
        assert abs(len(reconstructed) - len(two_tone)) <= 2

    def test_rejects_bad_rate(self, sine_1hz):
        with pytest.raises(ValueError):
            reconstruct(sine_1hz, 0.0)


class TestReconstructBatch:
    def test_rows_match_scalar_reconstruct(self, rng):
        collected = rng.normal(size=(3, 25))
        batch = reconstruct_batch(collected, interval=4.0, original_rate=1.0)
        for index in range(3):
            scalar = reconstruct(TimeSeries(collected[index], 4.0), 1.0)
            assert batch.shape[1] == len(scalar)
            np.testing.assert_allclose(batch[index], scalar.values, rtol=0, atol=1e-12)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="original_rate"):
            reconstruct_batch(np.zeros((2, 8)), interval=1.0, original_rate=0.0)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            reconstruct_batch(np.zeros(8), interval=1.0, original_rate=2.0)


class TestNyquistRoundTrip:
    def test_figure6_style_round_trip_on_tone(self):
        # A band-limited signal over-sampled 25x: down-sampling to the
        # estimated Nyquist rate (with a little headroom -- exactly 2x the
        # tone frequency is the theorem's degenerate boundary) and
        # reconstructing loses (essentially) nothing: the Figure 6 claim.
        series = sine(0.001, duration=10000.0, sampling_rate=0.05, amplitude=5.0, offset=50.0)
        result = nyquist_round_trip(series, headroom=1.25)
        assert result.estimate.reliable
        assert result.reduction_factor > 5
        assert result.error.nrmse < 0.05

    def test_sampling_exactly_at_nyquist_is_degenerate_for_pure_tone(self):
        # Documenting the boundary case: at exactly twice the tone
        # frequency the samples can miss the tone's amplitude entirely.
        series = sine(0.001, duration=10000.0, sampling_rate=0.05, amplitude=5.0, offset=50.0)
        result = nyquist_round_trip(series, headroom=1.0)
        assert result.error.nrmse > 0.05

    def test_quantization_aware_recovery_is_tighter(self):
        quantizer = UniformQuantizer(step=0.5)
        series = quantizer.apply_series(
            sine(0.001, duration=10000.0, sampling_rate=0.05, amplitude=5.0, offset=50.0))
        plain = nyquist_round_trip(series)
        aware = nyquist_round_trip(series, quantizer=quantizer)
        assert aware.error.l2 <= plain.error.l2 + 1e-9

    def test_headroom_keeps_more_samples(self, slow_metric_trace):
        tight = nyquist_round_trip(slow_metric_trace, headroom=1.0)
        generous = nyquist_round_trip(slow_metric_trace, headroom=4.0)
        assert len(generous.downsampled) >= len(tight.downsampled)

    def test_headroom_below_one_rejected(self, slow_metric_trace):
        with pytest.raises(ValueError):
            nyquist_round_trip(slow_metric_trace, headroom=0.5)

    def test_unreliable_estimate_keeps_trace(self, rng):
        from signal_helpers import white_noise
        noise_trace = white_noise(100.0, 10.0, rng=rng)
        estimator = NyquistEstimator(aliased_band_fraction=0.9)
        result = nyquist_round_trip(noise_trace, estimator=estimator)
        assert not result.estimate.reliable
        assert len(result.downsampled) == len(noise_trace)
        assert result.error.l2 == 0.0

    def test_downsampling_is_anti_aliased(self, slow_metric_trace, rng):
        series = slow_metric_trace.with_values(
            slow_metric_trace.values + rng.normal(scale=0.5, size=len(slow_metric_trace)))
        result = nyquist_round_trip(series)
        assert result.estimate.reliable
        target = min(result.estimate.nyquist_rate, series.sampling_rate)
        filtered = resample_to_rate(series, target)
        assert np.array_equal(result.downsampled.values, filtered.values)
        # Plain decimation would keep the noise above the new Nyquist frequency.
        decimated = series.decimate(decimation_factor(series.sampling_rate, target))
        assert not np.array_equal(filtered.values, decimated.values)

    def test_summary_keys(self, slow_metric_trace):
        summary = nyquist_round_trip(slow_metric_trace).summary()
        for key in ("original_rate_hz", "nyquist_rate_hz", "downsampled_rate_hz",
                    "reduction_factor", "l2", "nrmse"):
            assert key in summary

    def test_constant_trace_round_trip(self):
        series = constant(7.0, duration=3600.0, sampling_rate=1.0)
        result = nyquist_round_trip(series)
        assert result.error.max_abs < 1e-9
        assert result.reduction_factor > 100
