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
from . import scratch
from .errors import ReconstructionError, compare
from .nyquist import NyquistEstimate, NyquistEstimator
from .quantization import UniformQuantizer
from .resampling import downsample, fourier_resample, resample_to_rate

__all__ = [
    "reconstruct",
    "reconstruction_error_batch",
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


def reconstruction_error_batch(reference: np.ndarray, collected: np.ndarray,
                               collected_interval: float,
                               reference_interval: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``(nrmse, max_abs)`` of each collected row's reconstruction against ``reference``.

    Row ``i`` of the ``(rows, m)`` matrix ``collected`` is a down-sampled
    trace at ``collected_interval`` seconds per sample; it is
    reconstructed at the reference rate with the band-limited
    interpolator of :func:`reconstruct` (same target length, same
    halved Nyquist bin when up-sampling an even-length row) and scored
    against row ``i`` of the ``(rows, n)`` ``reference`` as
    :func:`~repro.core.errors.compare` does: over the common prefix, with
    a constant reference row giving 0 for a perfect reconstruction and
    ``nan`` otherwise.

    The whole group costs one ``rfft``/``irfft`` pair.  The
    reconstruction and its error live in a scratch buffer
    (:mod:`repro.core.scratch`), so a loop over many same-shape groups
    allocates no ``(rows, n)`` matrix; neither input is written to.
    """
    if reference.ndim != 2 or collected.ndim != 2:
        raise ValueError(f"reference and collected must be (rows, n) matrices, got shapes "
                         f"{reference.shape} and {collected.shape}")
    rows, m = collected.shape
    if reference.shape[0] != rows:
        raise ValueError(f"row counts differ: {reference.shape[0]} reference vs {rows} "
                         "collected")
    if m == 0:
        raise ValueError("cannot reconstruct empty rows")
    if reference_interval <= 0:
        raise ValueError("reference_interval must be positive")
    target = max(int(round(m * collected_interval * (1.0 / reference_interval))), 1)
    n = min(reference.shape[1], target)
    if n == 0:
        raise ValueError("cannot compare empty series")

    buffer = scratch.borrow("reconstruction", (rows, target), np.float64)
    if target == m:
        reconstructed = collected
    else:
        spectrum = np.fft.rfft(collected, axis=-1,
                               out=scratch.borrow("spectrum", (rows, m // 2 + 1), np.complex128))
        # When up-sampling an even-length row, its Nyquist bin holds the
        # folded sum of the +/- Nyquist components; halving it keeps the
        # interpolation real-valued and energy-preserving.  ``irfft``
        # zero-pads (or crops) the spectrum to the target length itself.
        if target > m and m % 2 == 0:
            spectrum[:, -1] *= 0.5
        reconstructed = np.fft.irfft(spectrum, n=target, axis=-1, out=buffer)
        reconstructed *= target / m

    # Score in place: ``abs`` then ``square`` gives the bits of ``diff ** 2``.
    # The reductions are the ufunc ``reduce`` calls ``np.max``/``np.mean``
    # run (``mean`` is ``add.reduce / n``), without their dispatch.
    a = reference[:, :n]
    diff = np.subtract(a, reconstructed[:, :n], out=buffer[:, :n])
    np.abs(diff, out=diff)
    max_abs = np.maximum.reduce(diff, axis=1)
    np.square(diff, out=diff)
    rmse = np.sqrt(np.add.reduce(diff, axis=1) / n)
    value_range = np.maximum.reduce(a, axis=1) - np.minimum.reduce(a, axis=1)
    flat = value_range == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        if flat.any():
            nrmse = np.where(flat, np.where(rmse == 0, 0.0, np.nan),
                             rmse / np.where(flat, 1.0, value_range))
        else:
            nrmse = rmse / value_range
    return nrmse, max_abs


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
