"""Noise models and signal-to-noise helpers.

Measurement noise is the main practical obstacle the paper identifies for
Nyquist-rate estimation (the 99 % energy cut-off of Section 3.2 exists to
discard it), so the test-suite and the telemetry generators need explicit,
controllable noise sources.
"""

from __future__ import annotations

import math

import numpy as np

from .timeseries import TimeSeries

__all__ = [
    "white_noise",
    "add_white_noise",
    "add_noise_snr",
    "pink_noise",
    "snr_db",
    "noise_floor_estimate",
    "noise_floor_estimates",
]


def white_noise(duration: float, sampling_rate: float, std: float = 1.0,
                mean: float = 0.0, rng: np.random.Generator | None = None,
                name: str = "white_noise") -> TimeSeries:
    """Gaussian white noise -- flat across the whole spectrum."""
    if duration <= 0 or sampling_rate <= 0:
        raise ValueError("duration and sampling_rate must be positive")
    if std < 0:
        raise ValueError("std must be non-negative")
    rng = rng or np.random.default_rng(0)
    n = max(int(round(duration * sampling_rate)), 1)
    values = rng.normal(loc=mean, scale=std, size=n)
    return TimeSeries(values, 1.0 / sampling_rate, name=name)


def add_white_noise(series: TimeSeries, std: float,
                    rng: np.random.Generator | None = None) -> TimeSeries:
    """Return ``series`` with i.i.d. Gaussian noise of ``std`` added."""
    if std < 0:
        raise ValueError("std must be non-negative")
    if std == 0 or len(series) == 0:
        return series
    rng = rng or np.random.default_rng(0)
    noisy = series.values + rng.normal(scale=std, size=len(series))
    return series.with_values(noisy)


def add_noise_snr(series: TimeSeries, snr_db_target: float,
                  rng: np.random.Generator | None = None) -> TimeSeries:
    """Add white noise so the result has (approximately) the requested SNR in dB.

    The SNR is computed against the *AC* power of the signal (mean removed),
    matching how measurement noise relates to the interesting variation of
    a metric rather than to its absolute level.
    """
    if len(series) == 0:
        return series
    ac_power = float(np.mean((series.values - np.mean(series.values)) ** 2))
    if ac_power == 0:
        return series
    noise_power = ac_power / (10.0 ** (snr_db_target / 10.0))
    return add_white_noise(series, math.sqrt(noise_power), rng=rng)


def pink_noise(duration: float, sampling_rate: float, std: float = 1.0,
               rng: np.random.Generator | None = None,
               name: str = "pink_noise") -> TimeSeries:
    """Approximate 1/f (pink) noise, built by shaping white noise in frequency.

    Long-range-dependent behaviour is common in network traffic (the paper
    cites the Hurst-parameter literature); pink noise is the standard
    synthetic stand-in.
    """
    if duration <= 0 or sampling_rate <= 0:
        raise ValueError("duration and sampling_rate must be positive")
    rng = rng or np.random.default_rng(0)
    n = max(int(round(duration * sampling_rate)), 1)
    white = rng.normal(size=n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / sampling_rate)
    scale = np.ones_like(freqs)
    nonzero = freqs > 0
    scale[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    shaped = np.fft.irfft(spectrum * scale, n=n)
    current_std = np.std(shaped)
    if current_std > 0:
        shaped = shaped / current_std * std
    return TimeSeries(shaped, 1.0 / sampling_rate, name=name)


def snr_db(signal: TimeSeries, noisy: TimeSeries) -> float:
    """Signal-to-noise ratio, in dB, of ``noisy`` relative to ``signal``.

    Returns ``inf`` when the two series are identical and ``-inf`` when the
    clean signal has no AC power at all.
    """
    if len(signal) != len(noisy):
        raise ValueError("series lengths differ")
    if len(signal) == 0:
        raise ValueError("series are empty")
    residual = noisy.values - signal.values
    signal_power = float(np.mean((signal.values - np.mean(signal.values)) ** 2))
    noise_power = float(np.mean(residual ** 2))
    if noise_power == 0:
        return math.inf
    if signal_power == 0:
        return -math.inf
    return 10.0 * math.log10(signal_power / noise_power)


def noise_floor_estimate(power: np.ndarray, quantile: float = 0.5) -> float:
    """Estimate the noise floor of a PSD as a robust quantile of its bins.

    The dual-frequency aliasing detector (Section 4.1) needs a threshold
    below which spectral discrepancies are attributed to noise rather than
    to aliased signal components; the median bin power is a standard,
    outlier-robust choice because genuine signal components occupy few bins.
    """
    array = np.asarray(power, dtype=np.float64)
    if array.size == 0:
        return 0.0
    if not 0 <= quantile <= 1:
        raise ValueError("quantile must be in [0, 1]")
    return float(np.quantile(array, quantile))


def noise_floor_estimates(power: np.ndarray, quantile: float = 0.5) -> np.ndarray:
    """Row-wise :func:`noise_floor_estimate` over a ``(rows, bins)`` PSD matrix.

    One ``np.quantile(axis=-1)`` call for the whole batch; each entry is
    bit-for-bit the scalar estimate of that row.
    """
    array = np.asarray(power, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"power must be a (rows, bins) matrix, got shape {array.shape}")
    if not 0 <= quantile <= 1:
        raise ValueError("quantile must be in [0, 1]")
    if array.shape[1] == 0:
        return np.zeros(array.shape[0])
    return np.quantile(array, quantile, axis=-1)
