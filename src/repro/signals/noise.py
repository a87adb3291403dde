"""Measurement noise and noise-floor estimation.

Measurement noise is the main practical obstacle the paper identifies for
Nyquist-rate estimation (the 99 % energy cut-off of Section 3.2 exists to
discard it), so the telemetry generators need a controllable noise source
and the aliasing detector (Section 4.1) a noise-floor estimate.
"""

from __future__ import annotations

import numpy as np

from .timeseries import TimeSeries

__all__ = [
    "add_white_noise",
    "noise_floor_estimate",
    "noise_floor_estimates",
]


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
