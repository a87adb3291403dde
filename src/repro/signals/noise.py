"""Measurement noise and noise-floor estimation.

Measurement noise is the main practical obstacle the paper identifies for
Nyquist-rate estimation (the 99 % energy cut-off of Section 3.2 exists to
discard it), so the telemetry generators need a controllable noise source
and the aliasing detector (Section 4.1) a noise-floor estimate.
"""

from __future__ import annotations

from functools import lru_cache

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


def noise_floor_estimate(power: np.ndarray) -> float:
    """Estimate the noise floor of a PSD as the median of its bins.

    The dual-frequency aliasing detector (Section 4.1) needs a threshold
    below which spectral discrepancies are attributed to noise rather than
    to aliased signal components; the median bin power is a standard,
    outlier-robust choice because genuine signal components occupy few bins.
    This is the one-row case of :func:`noise_floor_estimates`, so it
    equals ``np.quantile(power, 0.5)`` bit for bit.
    """
    array = np.asarray(power, dtype=np.float64)
    if array.size == 0:
        return 0.0
    return float(noise_floor_estimates(array.reshape(1, -1))[0])


def noise_floor_estimates(power: np.ndarray) -> np.ndarray:
    """Row-wise :func:`noise_floor_estimate` over a ``(rows, bins)`` PSD matrix.

    Each entry is ``np.quantile(row, 0.5)`` bit for bit, not
    ``np.median(row)``: the two may differ in the last bit, and the
    recorded dual-rate verdicts come from the quantile.  The quantile's
    "linear" method is replayed step for step with one ``np.partition``
    for the whole batch: the same partition indices (the two middle
    order statistics ``k`` and ``k + 1`` plus the first and last bin,
    which ``np.quantile`` adds), then its interpolation, ``a + (b - a) * 0``
    for an odd bin count and ``b - (b - a) * 0.5`` for an even one (a
    single bin interpolates with weight 1, ``b - (b - a) * 0``).  A row
    holding a NaN yields NaN, as ``np.quantile`` does; an infinite middle
    bin can yield NaN through ``(b - a) * 0``, also as it does.
    """
    array = np.asarray(power, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"power must be a (rows, bins) matrix, got shape {array.shape}")
    bins = array.shape[1]
    if bins == 0:
        return np.zeros(array.shape[0])
    kth, low, high, weight = _median_plan(bins)
    ordered = np.partition(array, kth, axis=-1)
    below, above = ordered[:, low], ordered[:, high]
    step = above - below
    if weight >= 0.5:
        floors = above - step * (1.0 - weight)
    else:
        floors = below + step * weight
    # np.partition sorts NaN last: such a row's floor is that NaN.
    last = ordered[:, -1]
    np.copyto(floors, last, where=np.isnan(last))
    return floors


@lru_cache(maxsize=64)
def _median_plan(bins: int) -> tuple[np.ndarray, int, int, float]:
    """``np.quantile``'s partition indices, middle pair and weight for ``bins`` bins.

    The indices are the sorted ``np.unique([0, -1, low, high])``, shared
    read-only by every call with the same bin count.
    """
    if bins == 1:
        low = high = -1
        weight = 1.0
    else:
        low = (bins - 1) // 2
        high = low + 1
        weight = 0.0 if bins % 2 else 0.5
    kth = np.unique([0, -1, low, high])
    kth.flags.writeable = False
    return kth, low, high, weight
