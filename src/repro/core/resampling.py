"""Re-sampling: cleaning irregular traces, down-sampling and up-sampling.

Three operations from the paper live here:

* **Pre-cleaning** (§3.2): "monitoring systems do not produce perfectly
  sampled signals ... we pre-clean the signal using nearest neighbor
  re-sampling" -- :func:`regularize`.
* **Down-sampling** to a lower (e.g. Nyquist) rate, either by naive
  decimation (what a poller that simply polls less often produces) or with
  an anti-aliasing low-pass filter -- :func:`downsample`.
* **Up-sampling / reconstruction support** via Fourier interpolation --
  :func:`fourier_resample` (the heavy lifting for Figure 6 lives in
  :mod:`repro.core.reconstruction`).
"""

from __future__ import annotations

import math

import numpy as np

from ..signals.filters import low_pass_fft
from ..signals.timeseries import IrregularTimeSeries, TimeSeries

__all__ = [
    "regularize",
    "nearest_neighbor_resample",
    "downsample",
    "resample_to_rate",
    "decimation_factor",
    "fourier_resample",
    "fourier_resample_matrix",
]


def nearest_neighbor_resample(series: IrregularTimeSeries, interval: float,
                              start_time: float | None = None,
                              end_time: float | None = None) -> TimeSeries:
    """Re-sample an irregular trace onto a regular grid with nearest-neighbour values.

    For every grid point the value of the closest-in-time raw sample is
    used; this "adds values for missing samples based on nearby samples"
    exactly as §3.2 describes and never invents values outside the observed
    range (unlike linear interpolation on counters that reset).
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    clean = series.dedupe()
    if len(clean) == 0:
        raise ValueError("cannot resample an empty series")
    t0 = clean.start_time if start_time is None else start_time
    t1 = clean.end_time if end_time is None else end_time
    if t1 < t0:
        raise ValueError("end_time must be >= start_time")
    n = max(int(math.floor((t1 - t0) / interval)) + 1, 1)
    grid = t0 + np.arange(n) * interval
    # For each grid point find the closest raw timestamp.
    indices = np.searchsorted(clean.timestamps, grid)
    indices = np.clip(indices, 0, len(clean) - 1)
    left = np.clip(indices - 1, 0, len(clean) - 1)
    choose_left = (np.abs(grid - clean.timestamps[left])
                   <= np.abs(clean.timestamps[indices] - grid))
    nearest = np.where(choose_left, left, indices)
    values = clean.values[nearest]
    return TimeSeries(values, interval, start_time=t0, name=series.name)


def regularize(series: IrregularTimeSeries, interval: float | None = None) -> TimeSeries:
    """Pre-clean an irregular trace into a regular one (§3.2).

    If ``interval`` is not given, the median observed inter-sample gap is
    used as the nominal polling interval.
    """
    target = interval if interval is not None else series.median_interval()
    return nearest_neighbor_resample(series, target)


def downsample(series: TimeSeries, factor: int, anti_alias: bool = True) -> TimeSeries:
    """Reduce the sampling rate of ``series`` by an integer ``factor``.

    With ``anti_alias=True`` a brick-wall low-pass at the *new* Nyquist
    frequency is applied first, which is how an ideal re-sampler behaves.
    With ``anti_alias=False`` the series is simply decimated -- this is
    what a monitoring system does when it polls less often, and it is the
    operation whose safety the Nyquist analysis establishes.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1 or len(series) == 0:
        return series
    filtered = series
    if anti_alias:
        new_nyquist = series.sampling_rate / factor / 2.0
        filtered = low_pass_fft(series, new_nyquist)
    return filtered.decimate(factor)


def decimation_factor(current_rate: float, target_rate: float) -> int:
    """The integer decimation step :func:`resample_to_rate` uses.

    One shared definition keeps the scalar policy/resampling path and the
    batched (matrix) policy evaluation on exactly the same sample grids: a
    factor of 1 means "already at or below the target rate".
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate >= current_rate:
        return 1
    return max(int(math.ceil(current_rate / target_rate - 1e-12)), 1)


def resample_to_rate(series: TimeSeries, target_rate: float,
                     anti_alias: bool = True) -> TimeSeries:
    """Down-sample ``series`` to (approximately) ``target_rate`` samples/second.

    The achievable rates are the original rate divided by an integer, so
    the result's rate is the largest such rate that does not exceed
    ``target_rate`` (i.e. we never accidentally sample *faster* than asked,
    which would under-state the savings).  If ``target_rate`` is at or
    above the original rate the series is returned unchanged.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate >= series.sampling_rate or len(series) == 0:
        return series
    factor = decimation_factor(series.sampling_rate, target_rate)
    return downsample(series, factor, anti_alias=anti_alias)


def fourier_resample(series: TimeSeries, target_length: int) -> TimeSeries:
    """Resample to ``target_length`` samples via zero-padding/truncation in frequency.

    This is the textbook band-limited (sinc) interpolator: take the FFT,
    extend or truncate the spectrum to the new length, take the inverse
    FFT.  For a signal sampled above its Nyquist rate, up-sampling with
    this operator recovers the original waveform exactly (Figure 6's "L2
    distance ... is 0" claim).
    """
    n = len(series)
    if target_length < 1:
        raise ValueError("target_length must be >= 1")
    if n == 0:
        raise ValueError("cannot resample an empty series")
    if target_length == n:
        return series
    spectrum = np.fft.rfft(series.values)
    target_bins = target_length // 2 + 1
    new_spectrum = np.zeros(target_bins, dtype=np.complex128)
    copy = min(len(spectrum), target_bins)
    new_spectrum[:copy] = spectrum[:copy]
    # When up-sampling an even-length signal, the original Nyquist bin
    # holds the folded sum of +/- Nyquist components; splitting it in two
    # keeps the interpolation real-valued and energy-preserving.
    if target_length > n and n % 2 == 0 and copy == len(spectrum):
        new_spectrum[copy - 1] *= 0.5
    values = np.fft.irfft(new_spectrum, n=target_length) * (target_length / n)
    new_interval = series.duration / target_length
    return TimeSeries(values, new_interval, start_time=series.start_time, name=series.name)


def fourier_resample_matrix(values: np.ndarray, target_length: int) -> np.ndarray:
    """Row-wise :func:`fourier_resample` over a ``(rows, n)`` matrix.

    One ``rfft``/``irfft`` pair for the whole batch instead of one per
    trace; every row's result equals ``fourier_resample`` on that row
    (same transform lengths, same Nyquist-bin handling), which is what
    lets the batched policy evaluation reproduce the scalar path.
    """
    if values.ndim != 2:
        raise ValueError(f"values must be a (rows, n) matrix, got shape {values.shape}")
    n = values.shape[1]
    if target_length < 1:
        raise ValueError("target_length must be >= 1")
    if n == 0:
        raise ValueError("cannot resample empty rows")
    if target_length == n:
        return values
    spectrum = np.fft.rfft(values, axis=-1)
    target_bins = target_length // 2 + 1
    new_spectrum = np.zeros((values.shape[0], target_bins), dtype=np.complex128)
    copy = min(spectrum.shape[1], target_bins)
    new_spectrum[:, :copy] = spectrum[:, :copy]
    # Same even-length Nyquist-bin split as the scalar interpolator: the
    # folded +/- Nyquist components are halved so the up-sampled rows stay
    # real-valued and energy-preserving.
    if target_length > n and n % 2 == 0 and copy == spectrum.shape[1]:
        new_spectrum[:, copy - 1] *= 0.5
    return np.fft.irfft(new_spectrum, n=target_length, axis=-1) * (target_length / n)
