"""Signal reconstruction after down-sampling (Section 4.3, Figure 6).

The paper's recipe: to recover the full-rate signal from Nyquist-rate
samples, "pass the signal through a low-pass filter (for example, by taking
an FFT of the sampled signal, setting all frequency components above f0 to
0 and then taking the IFFT)".  When the original readings were quantised,
re-applying the same quantiser to the reconstruction removes the (bounded)
interpolation residue, which is how Figure 6 reaches an L2 distance of 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..signals.filters import low_pass_fft
from ..signals.timeseries import TimeSeries
from .errors import ReconstructionError, compare
from .nyquist import NyquistEstimate, NyquistEstimator
from .quantization import UniformQuantizer
from .resampling import (downsample, fourier_resample, fourier_resample_matrix,
                         resample_to_rate)

__all__ = [
    "reconstruct",
    "reconstruct_batch",
    "upsample_to_length",
    "RoundTripResult",
    "nyquist_round_trip",
]


def upsample_to_length(series: TimeSeries, target_length: int,
                       cutoff_hz: float | None = None,
                       quantizer: UniformQuantizer | None = None) -> TimeSeries:
    """Up-sample ``series`` to ``target_length`` samples with band-limited interpolation.

    Parameters
    ----------
    series:
        The down-sampled (e.g. Nyquist-rate) trace.
    target_length:
        Number of samples the reconstruction should have.
    cutoff_hz:
        Optional explicit low-pass cut-off applied after interpolation.
        When omitted, the interpolator's implicit cut-off (the input
        series' own Nyquist frequency) applies, which is what the paper
        describes.
    quantizer:
        When given, the reconstruction is re-quantised with the same
        quantiser the original measurements used ("we can add the same
        quantization in order to recover the signal more accurately").
    """
    reconstructed = fourier_resample(series, target_length)
    if cutoff_hz is not None:
        reconstructed = low_pass_fft(reconstructed, cutoff_hz)
    if quantizer is not None:
        reconstructed = quantizer.apply_series(reconstructed)
    return reconstructed


def reconstruct(downsampled: TimeSeries, original_rate: float,
                cutoff_hz: float | None = None,
                quantizer: UniformQuantizer | None = None) -> TimeSeries:
    """Reconstruct a trace at ``original_rate`` from its down-sampled version."""
    if original_rate <= 0:
        raise ValueError("original_rate must be positive")
    target_length = max(int(round(downsampled.duration * original_rate)), 1)
    reconstructed = upsample_to_length(downsampled, target_length, cutoff_hz=cutoff_hz,
                                       quantizer=quantizer)
    return TimeSeries(reconstructed.values, 1.0 / original_rate,
                      start_time=downsampled.start_time, name=downsampled.name)


def reconstruct_batch(values: np.ndarray, interval: float,
                      original_rate: float) -> np.ndarray:
    """Row-wise :func:`reconstruct` over a ``(rows, m)`` matrix of collected samples.

    Every row is a down-sampled trace at ``interval`` seconds per sample;
    the result holds each row's band-limited reconstruction at
    ``original_rate``, computed with one batched FFT pair.  The target
    length matches the scalar path exactly (``round(duration *
    original_rate)``), so a row of the result equals ``reconstruct`` on
    that row's :class:`~repro.signals.timeseries.TimeSeries`.
    """
    if original_rate <= 0:
        raise ValueError("original_rate must be positive")
    if values.ndim != 2:
        raise ValueError(f"values must be a (rows, m) matrix, got shape {values.shape}")
    duration = values.shape[1] * interval
    target_length = max(int(round(duration * original_rate)), 1)
    return fourier_resample_matrix(values, target_length)


@dataclass(frozen=True)
class RoundTripResult:
    """Everything produced by a down-sample-then-reconstruct experiment."""

    original: TimeSeries
    downsampled: TimeSeries
    reconstructed: TimeSeries
    estimate: NyquistEstimate
    error: ReconstructionError

    @property
    def reduction_factor(self) -> float:
        """How many fewer samples the down-sampled trace keeps."""
        if len(self.downsampled) == 0:
            return float("nan")
        return len(self.original) / len(self.downsampled)

    def summary(self) -> dict[str, float]:
        """Flat dictionary of the headline numbers (for CSV export)."""
        return {
            "original_rate_hz": self.original.sampling_rate,
            "nyquist_rate_hz": self.estimate.nyquist_rate,
            "downsampled_rate_hz": self.downsampled.sampling_rate,
            "reduction_factor": self.reduction_factor,
            "l2": self.error.l2,
            "rmse": self.error.rmse,
            "nrmse": self.error.nrmse,
            "max_abs_error": self.error.max_abs,
        }


def nyquist_round_trip(series: TimeSeries,
                       estimator: NyquistEstimator | None = None,
                       headroom: float = 1.0,
                       quantizer: UniformQuantizer | None = None) -> RoundTripResult:
    """Down-sample a trace to its estimated Nyquist rate and reconstruct it.

    This is the Figure 6 experiment as a single call: estimate the Nyquist
    rate, keep only samples at (headroom x) that rate, reconstruct with the
    low-pass interpolator (optionally re-quantising), and report the error
    against the original.  The down-sampling applies an anti-alias filter
    first (an ideal re-sampler), because the paper's a-posteriori use case
    re-samples already-collected data.

    Parameters
    ----------
    headroom:
        Multiplier (>= 1) on the estimated Nyquist rate before
        down-sampling.  Operators keep headroom to be robust to rate drift;
        1.0 reproduces the paper's figure.
    """
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1.0")
    estimator = estimator or NyquistEstimator()
    estimate = estimator.estimate(series)
    if not estimate.reliable:
        # When the rate cannot be estimated we keep the trace as-is: no
        # saving, but also no information loss.
        error = compare(series, series)
        return RoundTripResult(series, series, series, estimate, error)

    target_rate = min(estimate.nyquist_rate * headroom, series.sampling_rate)
    downsampled = resample_to_rate(series, target_rate)
    if len(downsampled) < 2:
        downsampled = downsample(series, max(len(series) // 2, 1))
    reconstructed = reconstruct(downsampled, series.sampling_rate,
                                cutoff_hz=estimate.cutoff_frequency,
                                quantizer=quantizer)
    error = compare(series, reconstructed)
    return RoundTripResult(series, downsampled, reconstructed, estimate, error)
