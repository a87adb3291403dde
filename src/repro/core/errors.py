"""Reconstruction-quality metrics.

The paper summarises reconstruction quality with the L2 distance between
the original and reconstructed traces (Figure 6).  Benchmarks and the
pipeline simulator additionally report normalised and per-sample error
metrics so results are comparable across metrics with very different
scales (temperatures in tens of degrees vs. drop counters near zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..signals.timeseries import TimeSeries

__all__ = [
    "ReconstructionError",
    "compare",
]


def _aligned_values(original: TimeSeries, reconstructed: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """Return value arrays trimmed to a common length.

    Fourier resampling can produce a reconstruction one sample shorter or
    longer than the original when the decimation factor does not divide the
    trace length; comparing the overlapping prefix is the standard
    convention and never hides more than ``factor`` samples.
    """
    n = min(len(original), len(reconstructed))
    if n == 0:
        raise ValueError("cannot compare empty series")
    return original.values[:n], reconstructed.values[:n]


@dataclass(frozen=True)
class ReconstructionError:
    """Bundle of all reconstruction-quality metrics for one comparison."""

    l2: float
    rmse: float
    nrmse: float
    max_abs: float
    mean_abs: float
    samples_compared: int


def compare(original: TimeSeries, reconstructed: TimeSeries) -> ReconstructionError:
    """Compute every reconstruction metric at once."""
    a, b = _aligned_values(original, reconstructed)
    diff = a - b
    value_range = float(np.max(a) - np.min(a))
    rmse_value = float(np.sqrt(np.mean(diff ** 2)))
    if value_range == 0:
        nrmse_value = 0.0 if rmse_value == 0 else float("nan")
    else:
        nrmse_value = rmse_value / value_range
    return ReconstructionError(
        l2=float(np.linalg.norm(diff)),
        rmse=rmse_value,
        nrmse=nrmse_value,
        max_abs=float(np.max(np.abs(diff))),
        mean_abs=float(np.mean(np.abs(diff))),
        samples_compared=int(a.shape[0]),
    )
