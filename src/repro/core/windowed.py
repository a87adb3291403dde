"""Moving-window Nyquist inference (Figure 7).

Figure 7 of the paper shows "the inferred Nyquist rates over time for the
signal depicted in Figure 6 ... a step of 5 minutes for the moving window
and a window size of 6 hours".  :func:`windowed_nyquist_rates` produces
exactly that series for any trace; :func:`rate_stability` summarises how
much the inferred rate moves, which is what motivates dynamic sampling in
the first place.

The sweep gathers every window position into one
``(num_windows, window_len)`` matrix with
:func:`numpy.lib.stride_tricks.sliding_window_view` and feeds it to
:meth:`NyquistEstimator.estimate_batch`, the survey's vectorised engine
-- one ``rfft`` for the whole sweep instead of one per window, which is
what makes continuous fleet-wide re-estimation (the Figure 7 loop run on
every pair, forever) tractable.  Window positions whose sample count
differs (ragged edges from non-integer window/step-to-interval ratios)
are grouped by length and batched per group, so every position of
:meth:`TimeSeries.iter_windows` is analysed.  The per-window
:meth:`NyquistEstimator.estimate` loop lives in the tests as the oracle
the sweep must match (``tests/core/test_windowed.py``), and
``benchmarks/bench_fig7_windowed_rates.py`` times the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..signals.timeseries import TimeSeries
from .nyquist import NyquistEstimate, NyquistEstimator

__all__ = [
    "WindowedEstimate",
    "windowed_nyquist_rates",
    "rate_stability",
]

#: The paper's Figure 7 parameters.
FIGURE7_WINDOW_SECONDS: float = 6 * 3600.0
FIGURE7_STEP_SECONDS: float = 5 * 60.0


@dataclass(frozen=True)
class WindowedEstimate:
    """Nyquist estimate for one position of the moving window."""

    window_start: float
    window_end: float
    estimate: NyquistEstimate

    @property
    def nyquist_rate(self) -> float:
        """The inferred Nyquist rate (nan when unreliable)."""
        return self.estimate.nyquist_rate if self.estimate.reliable else float("nan")


def windowed_nyquist_rates(series: TimeSeries,
                           window_seconds: float = FIGURE7_WINDOW_SECONDS,
                           step_seconds: float = FIGURE7_STEP_SECONDS,
                           estimator: NyquistEstimator | None = None) -> list[WindowedEstimate]:
    """Estimate the Nyquist rate in every position of a sliding window.

    Parameters default to the paper's Figure 7 settings (6-hour window,
    5-minute step).  Windows containing fewer samples than the estimator's
    minimum are skipped (they would only produce unreliable estimates).

    Window positions come from :meth:`TimeSeries.iter_window_bounds`, the
    source :meth:`TimeSeries.iter_windows` also consumes, so the sweep
    analyses byte for byte the sample slices a per-window loop would; all
    equal-length positions become one matrix and one ``estimate_batch``.
    """
    estimator = estimator or NyquistEstimator()
    bounds = [(first, stop - first)
              for first, stop in series.iter_window_bounds(window_seconds, step_seconds)
              if stop - first >= estimator.min_samples]
    if not bounds:
        return []
    by_length: dict[int, list[tuple[int, int]]] = {}
    for slot, (first, length) in enumerate(bounds):
        by_length.setdefault(length, []).append((slot, first))

    interval = series.interval
    start_time = series.start_time
    results: list[WindowedEstimate | None] = [None] * len(bounds)
    for length, entries in by_length.items():
        starts = np.fromiter((first for _, first in entries), dtype=np.intp,
                             count=len(entries))
        # One strided view over the trace; fancy-indexing the window start
        # offsets materialises exactly the (num_windows, window_len)
        # matrix the batch engine wants, without a Python loop per window.
        matrix = sliding_window_view(series.values, length)[starts]
        estimates = estimator.estimate_batch(matrix, interval)
        for (slot, first), estimate in zip(entries, estimates):
            window_start = start_time + first * interval
            results[slot] = WindowedEstimate(window_start, window_start + length * interval,
                                             estimate)
    return results  # type: ignore[return-value]


def rate_stability(estimates: list[WindowedEstimate]) -> dict[str, float]:
    """Summarise how much the inferred Nyquist rate varies over time.

    Returns min/max/mean/std of the reliable estimates plus the max/min
    ratio ("dynamic range"); a large dynamic range is the paper's argument
    for adapting the sampling rate instead of fixing it once.
    """
    rates = np.array([entry.nyquist_rate for entry in estimates
                      if not np.isnan(entry.nyquist_rate)])
    if rates.size == 0:
        return {"count": 0.0, "min": float("nan"), "max": float("nan"),
                "mean": float("nan"), "std": float("nan"), "dynamic_range": float("nan")}
    return {
        "count": float(rates.size),
        "min": float(np.min(rates)),
        "max": float(np.max(rates)),
        "mean": float(np.mean(rates)),
        "std": float(np.std(rates)),
        "dynamic_range": float(np.max(rates) / np.min(rates)) if np.min(rates) > 0 else float("inf"),
    }
