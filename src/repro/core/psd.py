"""Power-spectral-density estimation.

Section 3.2 of the paper computes, for each trace, "the FFT and ... the
total energy in the signal -- the sum of the PSD across all FFT bins".
:func:`periodogram` implements that single-FFT estimate and returns a
:class:`repro.signals.Spectrum`, which the Nyquist estimator consumes.

The dual-rate aliasing detector compares the spectra of many probe
streams at once, so the plain-FFT estimate also exists in batched form:
:func:`batch_periodogram` takes a ``(rows, n)`` matrix of equal-length
traces and computes every row's PSD with a single
``np.fft.rfft(axis=-1)`` call, returning a
:class:`repro.signals.SpectrumBatch`.  Both apply the same normalisation
and doubling, so a batch row is bit for bit the PSD :func:`periodogram`
produces for that trace.

:func:`periodogram` supports two tapers: the plain FFT
(``"rectangular"``, the paper's method) and ``"hann"``, which the
short-window estimators use to curb leakage.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Literal, get_args

import numpy as np

from ..signals.spectrum import Spectrum, SpectrumBatch
from ..signals.timeseries import TimeSeries

__all__ = [
    "periodogram",
    "batch_periodogram",
    "WindowName",
    "WINDOW_NAMES",
    "window_coefficients",
    "taper_energy",
]

WindowName = Literal["rectangular", "hann"]

#: Every supported taper name, in :data:`WindowName` order.
WINDOW_NAMES: tuple[str, ...] = get_args(WindowName)


def window_coefficients(name: WindowName, length: int) -> np.ndarray:
    """Return the taper coefficients for the named window function.

    The Hann taper is computed once per length and shared, so it comes
    back read-only.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if name not in WINDOW_NAMES:
        raise ValueError(f"unknown window {name!r}; choose from {list(WINDOW_NAMES)}")
    if length == 1 or name == "rectangular":
        return np.ones(length)
    return _hann(length)


@lru_cache(maxsize=64)
def _hann(length: int) -> np.ndarray:
    taper = np.hanning(length)
    taper.flags.writeable = False
    return taper


@lru_cache(maxsize=64)
def _rfft_frequencies(n: int, interval: float) -> np.ndarray:
    """``np.fft.rfftfreq(n, d=interval)``, computed once per shape and read-only."""
    freqs = np.fft.rfftfreq(n, d=interval)
    freqs.flags.writeable = False
    return freqs


def taper_energy(taper: np.ndarray) -> float:
    """Sum of squared taper coefficients, rejecting degenerate tapers.

    A tapered window can be identically (or numerically) zero at very
    short lengths -- ``hanning(2) == [0, 0]`` is the canonical case -- in
    which case the PSD normalisation divides by zero and every bin comes
    out NaN.  Rather than emit a RuntimeWarning and a NaN spectrum, fail
    with an actionable error.
    """
    energy = float(np.sum(taper ** 2))
    if energy <= taper.size * np.finfo(np.float64).eps ** 2:
        raise ValueError(
            f"degenerate tapered window of length {taper.size}: the taper has "
            "(near-)zero energy (e.g. hann of length 2), so the PSD is undefined; "
            "use a longer trace or window='rectangular'")
    return energy


def _one_sided_psd(values: np.ndarray, taper: np.ndarray) -> np.ndarray:
    """One-sided PSD along the last axis of ``values``.

    Normalised so the sum of bin powers equals the mean squared value of
    the signal (exactly so for the rectangular window, in expectation for
    tapered windows); only ratios matter downstream, but a physical
    normalisation makes the numbers interpretable in tests.  Interior bins
    are doubled to account for negative frequencies (DC and, for even n,
    the Nyquist bin are unique).
    """
    n = values.shape[-1]
    scale = n * taper_energy(taper)
    spectrum = np.fft.rfft(values * taper, axis=-1)
    power = (np.abs(spectrum) ** 2) / scale
    if n % 2 == 0:
        power[..., 1:-1] *= 2.0
    else:
        power[..., 1:] *= 2.0
    return power


def periodogram(series: TimeSeries, window: WindowName = "rectangular") -> Spectrum:
    """Single-FFT power spectral density of ``series``.

    Parameters
    ----------
    series:
        The regularly sampled trace to analyse.
    window:
        Taper applied before the FFT.  The paper's method uses the plain
        FFT (rectangular window), which is the default.

    Returns
    -------
    Spectrum
        One-sided PSD with ``len(series) // 2 + 1`` bins.
    """
    if len(series) < 2:
        raise ValueError("need at least two samples to compute a periodogram")
    taper = window_coefficients(window, len(series))
    power = _one_sided_psd(series.values, taper)
    freqs = np.fft.rfftfreq(len(series), d=series.interval)
    return Spectrum(freqs, power, series.sampling_rate)


def batch_periodogram(values: np.ndarray, interval: float) -> SpectrumBatch:
    """Single-FFT (rectangular-window) PSDs of a whole batch of equal-length traces.

    The spectra the dual-rate aliasing detector compares; the batched
    Nyquist estimator (:mod:`repro.core.batch`) runs its own FFT.

    Parameters
    ----------
    values:
        ``(rows, n)`` matrix; each row is one trace of ``n`` samples.
    interval:
        The common sampling interval of every row, in seconds.

    Returns
    -------
    SpectrumBatch
        ``rows`` one-sided PSDs of ``n // 2 + 1`` bins each, computed with
        one ``rfft(axis=-1)`` call for the whole batch.  The power is a
        fresh C-contiguous matrix of squared magnitudes, non-negative by
        construction, so the batch skips the constructor's re-checks.
        The frequency axis is shared by every batch of the same
        ``(n, interval)`` and is read-only.

    The rectangular window is applied implicitly: multiplying by its ones
    and normalising by their energy (exactly ``n``) are exact no-ops, so
    each row's PSD is ``|rfft(row)|**2 / (n * n)`` with the one-sided
    doubling, bit for bit what :func:`periodogram` returns for that row.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"values must be a 2-D (rows, samples) matrix, got shape {matrix.shape}")
    if not (math.isfinite(interval) and interval > 0):
        raise ValueError(f"interval must be a positive finite number, got {interval}")
    sampling_rate = 1.0 / interval
    if not math.isfinite(sampling_rate):
        raise ValueError("sampling_rate must be positive and finite")
    n = matrix.shape[-1]
    if n < 2:
        raise ValueError("need at least two samples per trace to compute a periodogram")
    power = np.abs(np.fft.rfft(matrix, axis=-1)) ** 2 / (n * float(n))
    if n % 2 == 0:
        power[:, 1:-1] *= 2.0
    else:
        power[:, 1:] *= 2.0
    return SpectrumBatch._of_checked(_rfft_frequencies(n, interval), power, sampling_rate)
