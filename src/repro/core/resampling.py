"""Re-sampling: cleaning irregular traces, down-sampling and up-sampling.

Three operations from the paper live here:

* **Pre-cleaning** (§3.2): "monitoring systems do not produce perfectly
  sampled signals ... we pre-clean the signal using nearest neighbor
  re-sampling" -- :func:`regularize`.
* **Down-sampling** to a lower (e.g. Nyquist) rate with an anti-aliasing
  low-pass filter -- :func:`downsample` and :func:`resample_to_rate`.
  Naive decimation (what a poller that simply polls less often
  produces) is :meth:`~repro.signals.timeseries.TimeSeries.decimate` by
  a :func:`decimation_factor`.
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
]


def nearest_neighbor_resample(series: IrregularTimeSeries, interval: float) -> TimeSeries:
    """Re-sample an irregular trace onto a regular grid with nearest-neighbour values.

    The grid runs every ``interval`` seconds from the first to the last
    raw timestamp.  For every grid point the value of the closest-in-time
    raw sample is used; this "adds values for missing samples based on
    nearby samples" exactly as §3.2 describes and never invents values
    outside the observed range (unlike linear interpolation on counters
    that reset).
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    clean = series.dedupe()
    if len(clean) == 0:
        raise ValueError("cannot resample an empty series")
    t0 = clean.start_time
    n = max(int(math.floor((clean.end_time - t0) / interval)) + 1, 1)
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


def regularize(series: IrregularTimeSeries) -> TimeSeries:
    """Pre-clean an irregular trace into a regular one (§3.2).

    The median observed inter-sample gap is used as the nominal polling
    interval.
    """
    return nearest_neighbor_resample(series, series.median_interval())


def downsample(series: TimeSeries, factor: int) -> TimeSeries:
    """Reduce the sampling rate of ``series`` by an integer ``factor``.

    A brick-wall low-pass at the *new* Nyquist frequency is applied
    first, which is how an ideal re-sampler behaves.  What a monitoring
    system does when it polls less often -- the operation whose safety
    the Nyquist analysis establishes -- is plain
    :meth:`~repro.signals.timeseries.TimeSeries.decimate`.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1 or len(series) == 0:
        return series
    new_nyquist = series.sampling_rate / factor / 2.0
    return low_pass_fft(series, new_nyquist).decimate(factor)


def decimation_factor(current_rate: float, target_rate: float) -> int:
    """The integer decimation step :func:`resample_to_rate` uses.

    One shared definition keeps filtered re-sampling and the policies'
    batched polling on exactly the same sample grids: a factor of 1 means
    "already at or below the target rate".
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate >= current_rate:
        return 1
    return max(int(math.ceil(current_rate / target_rate - 1e-12)), 1)


def resample_to_rate(series: TimeSeries, target_rate: float) -> TimeSeries:
    """Anti-aliased down-sampling of ``series`` to (about) ``target_rate`` samples/second.

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
    return downsample(series, factor)


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

