"""Ergodicity analysis (Section 6, "Beyond Nyquist").

The paper asks: are datacenter metrics *ergodic* -- do the statistics of a
single device observed for a long time match the statistics of the whole
fleet observed at one instant?  Operators implicitly assume they are every
time they canary a change on a handful of machines.  This module provides:

* :func:`ensemble_statistics` / :func:`time_statistics` -- the two kinds of
  averages being compared;
* :func:`ergodicity_gap` -- how far apart they are, as a function of the
  observation period (the paper's "how long of an observation period is
  required?");
* :func:`minimum_canary_size` -- the smallest sample of devices whose
  ensemble statistics track the full fleet to a requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..signals.timeseries import TimeSeries

__all__ = [
    "ErgodicityReport",
    "ensemble_statistics",
    "time_statistics",
    "ergodicity_gap",
    "ergodicity_report",
    "minimum_canary_size",
]

#: Random device subsets :func:`minimum_canary_size` draws per candidate size.
_CANARY_TRIALS = 20


def _stack(fleet: Sequence[TimeSeries]) -> np.ndarray:
    """Stack a fleet of equal-length traces into a (devices, samples) matrix."""
    if not fleet:
        raise ValueError("fleet must contain at least one trace")
    lengths = {len(series) for series in fleet}
    n = min(lengths)
    if n == 0:
        raise ValueError("fleet traces must be non-empty")
    return np.vstack([series.values[:n] for series in fleet])


def ensemble_statistics(fleet: Sequence[TimeSeries]) -> dict[str, float]:
    """Statistics across the fleet at one instant (a vertical slice).

    The instant is the middle of the traces, away from warm-up and tail
    effects.
    """
    matrix = _stack(fleet)
    column = matrix[:, matrix.shape[1] // 2]
    return {
        "mean": float(np.mean(column)),
        "std": float(np.std(column)),
        "p50": float(np.percentile(column, 50)),
        "p95": float(np.percentile(column, 95)),
    }


def time_statistics(series: TimeSeries, duration: float | None = None) -> dict[str, float]:
    """Statistics of a single device over (a prefix of) its observation period."""
    if len(series) == 0:
        raise ValueError("series is empty")
    if duration is not None:
        n = max(int(round(duration / series.interval)), 1)
        series = series.head(n)
    values = series.values
    return {
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
    }


def ergodicity_gap(fleet: Sequence[TimeSeries], device_index: int = 0,
                   duration: float | None = None) -> float:
    """Relative difference between one device's time-average and the fleet ensemble mean.

    Returns ``|time_mean - ensemble_mean| / max(|ensemble_mean|, eps)``.
    A gap near zero for modest durations is evidence the metric behaves
    ergodically; a persistent gap means canary results from that device do
    not generalise.
    """
    if not 0 <= device_index < len(fleet):
        raise ValueError("device_index out of range")
    ensemble = ensemble_statistics(fleet)
    time_stats = time_statistics(fleet[device_index], duration=duration)
    scale = max(abs(ensemble["mean"]), 1e-12)
    return abs(time_stats["mean"] - ensemble["mean"]) / scale


@dataclass(frozen=True)
class ErgodicityReport:
    """Gap-vs-observation-period curve for one device against its fleet."""

    device_index: int
    durations: tuple[float, ...]
    gaps: tuple[float, ...]

    def converged_duration(self, tolerance: float = 0.1) -> float | None:
        """Shortest observation period whose gap is within ``tolerance`` (None if never)."""
        for duration, gap in zip(self.durations, self.gaps):
            if gap <= tolerance:
                return duration
        return None


def ergodicity_report(fleet: Sequence[TimeSeries], device_index: int = 0,
                      fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0)) -> ErgodicityReport:
    """Compute the ergodicity gap at several observation periods.

    ``fractions`` are fractions of the full trace duration; the report
    answers the paper's "how long of an observation period is required for
    the assumption to hold true?".
    """
    if not fleet:
        raise ValueError("fleet must contain at least one trace")
    total = fleet[device_index].duration
    durations = []
    gaps = []
    for fraction in fractions:
        if not 0 < fraction <= 1:
            raise ValueError("fractions must be in (0, 1]")
        duration = total * fraction
        durations.append(duration)
        gaps.append(ergodicity_gap(fleet, device_index=device_index, duration=duration))
    return ErgodicityReport(device_index, tuple(durations), tuple(gaps))


def minimum_canary_size(fleet: Sequence[TimeSeries], tolerance: float = 0.05,
                        rng: np.random.Generator | None = None) -> int:
    """Smallest random canary (subset of devices) whose mean tracks the fleet mean.

    For each candidate size the fleet-instant mean of 20 random subsets is
    compared with the full-fleet mean; the size is accepted when the
    *worst* relative deviation across them is within ``tolerance``.
    Returns ``len(fleet)`` when no smaller canary suffices.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    rng = rng or np.random.default_rng(0)
    matrix = _stack(fleet)
    column = matrix[:, matrix.shape[1] // 2]
    fleet_mean = float(np.mean(column))
    scale = max(abs(fleet_mean), 1e-12)
    for size in range(1, len(fleet)):
        worst = 0.0
        for _ in range(_CANARY_TRIALS):
            subset = rng.choice(len(fleet), size=size, replace=False)
            deviation = abs(float(np.mean(column[subset])) - fleet_mean) / scale
            worst = max(worst, deviation)
        if worst <= tolerance:
            return size
    return len(fleet)
