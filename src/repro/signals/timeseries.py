"""Time-series containers used throughout the library.

The paper's central abstraction is that every monitored metric is a
discrete-time signal.  Two containers implement that abstraction:

* :class:`TimeSeries` -- a regularly sampled signal (constant sampling
  interval).  This is what the Nyquist estimator, the reconstruction code
  and the adaptive controller operate on.
* :class:`IrregularTimeSeries` -- a signal whose samples are *not*
  equi-distant in time, which is what production monitoring systems
  actually emit (polls are delayed, dropped or duplicated).  Section 3.2 of
  the paper pre-cleans such traces with nearest-neighbour re-sampling; the
  conversion lives in :func:`repro.core.resampling.regularize`.

Both containers are immutable value objects: operations return new
instances rather than mutating in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = ["TimeSeries", "IrregularTimeSeries"]


def _as_float_array(values: Iterable[float], name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D float64 array, validating shape."""
    array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class TimeSeries:
    """A regularly sampled, real-valued discrete-time signal.

    Parameters
    ----------
    values:
        The sample values, in time order.
    interval:
        The (constant) spacing between consecutive samples, in seconds.
    start_time:
        Absolute time of the first sample, in seconds.  Only used for
        aligning windows and for pretty reporting; the spectral code only
        cares about ``interval``.
    name:
        Optional human-readable label (metric name, device id, ...).
    """

    values: np.ndarray
    interval: float
    start_time: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        array = _as_float_array(self.values, "values")
        object.__setattr__(self, "values", array)
        if not math.isfinite(self.interval) or self.interval <= 0:
            raise ValueError(f"interval must be a positive finite number, got {self.interval}")
        if not math.isfinite(self.start_time):
            raise ValueError("start_time must be finite")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    @property
    def sampling_rate(self) -> float:
        """Sampling rate in Hz (samples per second)."""
        return 1.0 / self.interval

    @property
    def duration(self) -> float:
        """Time covered by the series, in seconds.

        A series of ``n`` samples spans ``n * interval`` seconds: each
        sample represents one polling interval.
        """
        return len(self) * self.interval

    @property
    def end_time(self) -> float:
        """Absolute time just after the last sample."""
        return self.start_time + self.duration

    def times(self) -> np.ndarray:
        """Absolute timestamps of every sample."""
        return self.start_time + np.arange(len(self)) * self.interval

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        return float(np.mean(self.values)) if len(self) else float("nan")

    def std(self) -> float:
        return float(np.std(self.values)) if len(self) else float("nan")

    def min(self) -> float:
        return float(np.min(self.values)) if len(self) else float("nan")

    def max(self) -> float:
        return float(np.max(self.values)) if len(self) else float("nan")

    def value_range(self) -> float:
        """Peak-to-peak range of the samples (0 for an empty series)."""
        return self.max() - self.min() if len(self) else 0.0

    # ------------------------------------------------------------------
    # Transformations (all return new TimeSeries)
    # ------------------------------------------------------------------
    def with_values(self, values: Iterable[float]) -> "TimeSeries":
        """Return a copy with different sample values (same timing and name)."""
        return TimeSeries(values=np.asarray(values, dtype=np.float64),
                          interval=self.interval,
                          start_time=self.start_time,
                          name=self.name)

    def with_name(self, name: str) -> "TimeSeries":
        return TimeSeries(self.values, self.interval, self.start_time, name)

    def head(self, n: int) -> "TimeSeries":
        """First ``n`` samples."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return TimeSeries(self.values[:n], self.interval, self.start_time, self.name)

    def segment(self, start_index: int, stop_index: int) -> "TimeSeries":
        """Samples ``[start_index, stop_index)`` as a new series."""
        if start_index < 0 or stop_index < start_index:
            raise ValueError("invalid segment bounds")
        start_index = min(start_index, len(self))
        stop_index = min(stop_index, len(self))
        return TimeSeries(self.values[start_index:stop_index],
                          self.interval,
                          self.start_time + start_index * self.interval,
                          self.name)

    def iter_window_bounds(self, window: float, step: float) -> Iterator[tuple[int, int]]:
        """Sample-index bounds ``(first, stop)`` of every moving-window position.

        The single source of truth for the Figure 7 window arithmetic:
        both the per-window :meth:`iter_windows` iteration and the
        vectorised sweep of :mod:`repro.core.windowed` consume these
        bounds, so a per-window loop and the sweep always analyse
        byte-for-byte the same sample slices (including the ragged positions where rounding makes
        a window one sample shorter or longer than its neighbours).
        Windows that would extend past the end of the series are not
        yielded.
        """
        if not (math.isfinite(window) and window > 0 and math.isfinite(step) and step > 0):
            raise ValueError("window and step must be positive finite numbers, "
                             f"got {window} and {step}")
        n = len(self)
        t = self.start_time
        while t + window <= self.end_time + 1e-9:
            first = max(int(math.ceil((t - self.start_time) / self.interval)), 0)
            last = max(int(math.ceil((t + window - self.start_time) / self.interval)), first)
            yield min(first, n), min(last, n)
            t += step

    def iter_windows(self, window: float, step: float) -> Iterator["TimeSeries"]:
        """Yield successive windows of ``window`` seconds every ``step`` seconds.

        Used by the moving-window Nyquist inference of Figure 7.  Windows
        that would extend past the end of the series are not yielded.
        """
        for first, stop in self.iter_window_bounds(window, step):
            yield self.segment(first, stop)

    def concatenate(self, other: "TimeSeries") -> "TimeSeries":
        """Append ``other`` (same interval) after this series."""
        if not math.isclose(other.interval, self.interval, rel_tol=1e-9):
            raise ValueError("cannot concatenate series with different intervals")
        return TimeSeries(np.concatenate([self.values, other.values]),
                          self.interval, self.start_time, self.name)

    def decimate(self, factor: int) -> "TimeSeries":
        """Keep every ``factor``-th sample (no anti-alias filtering).

        This models what a *monitoring system* does when it simply polls
        less often -- which is exactly the operation whose safety the paper
        analyses.  For filtered down-sampling see
        :func:`repro.core.resampling.downsample`.
        """
        if factor < 1:
            raise ValueError("decimation factor must be >= 1")
        return TimeSeries(self.values[::factor], self.interval * factor,
                          self.start_time, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return (f"TimeSeries(n={len(self)}, interval={self.interval:g}s, "
                f"rate={self.sampling_rate:g}Hz{label})")


@dataclass(frozen=True)
class IrregularTimeSeries:
    """A signal whose samples carry explicit (possibly uneven) timestamps.

    Production pollers do not produce perfectly periodic samples: polls
    slip, time out or arrive duplicated.  Section 3.2 of the paper
    pre-cleans such traces with nearest-neighbour re-sampling before the
    FFT; :func:`repro.core.resampling.regularize` implements that step.
    """

    timestamps: np.ndarray
    values: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        ts = _as_float_array(self.timestamps, "timestamps")
        vs = _as_float_array(self.values, "values")
        if ts.shape != vs.shape:
            raise ValueError("timestamps and values must have the same length")
        if len(ts) > 1 and np.any(np.diff(ts) < 0):
            order = np.argsort(ts, kind="stable")
            ts = ts[order]
            vs = vs[order]
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vs)

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def start_time(self) -> float:
        return float(self.timestamps[0]) if len(self) else 0.0

    @property
    def end_time(self) -> float:
        return float(self.timestamps[-1]) if len(self) else 0.0

    def intervals(self) -> np.ndarray:
        """Gaps between consecutive samples."""
        return np.diff(self.timestamps) if len(self) > 1 else np.empty(0)

    def median_interval(self) -> float:
        """The median inter-sample gap -- the nominal polling interval."""
        gaps = self.intervals()
        if gaps.size == 0:
            raise ValueError("need at least two samples to estimate an interval")
        positive = gaps[gaps > 0]
        if positive.size == 0:
            raise ValueError("all samples share the same timestamp")
        return float(np.median(positive))

    def dedupe(self) -> "IrregularTimeSeries":
        """Drop samples that repeat a timestamp (keeping the first occurrence)."""
        if len(self) == 0:
            return self
        keep = np.concatenate([[True], np.diff(self.timestamps) > 0])
        return IrregularTimeSeries(self.timestamps[keep], self.values[keep], self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"IrregularTimeSeries(n={len(self)}{label})"
