"""Synthetic signal generators.

Multi-tone signals have an analytically known Nyquist rate, so they are
the reference workload of the estimator tests and the illustrative
signal of the paper (Figures 2 and 3 use the superposition of two sine
waves at 400 Hz and 440 Hz).

All generators return :class:`repro.signals.TimeSeries` instances.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .timeseries import TimeSeries

__all__ = [
    "multi_tone",
    "two_tone_figure3",
]


def _time_axis(duration: float, sampling_rate: float) -> tuple[np.ndarray, float]:
    """Return (timestamps, interval) for a signal of ``duration`` seconds."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    if sampling_rate <= 0:
        raise ValueError("sampling_rate must be positive")
    interval = 1.0 / sampling_rate
    n = max(int(round(duration * sampling_rate)), 1)
    return np.arange(n) * interval, interval


def multi_tone(frequencies: Sequence[float], duration: float, sampling_rate: float,
               amplitudes: Sequence[float] | None = None,
               offset: float = 0.0,
               name: str = "multi_tone") -> TimeSeries:
    """A superposition of zero-phase sinusoids.

    The Nyquist rate of the result is ``2 * max(frequencies)``, which makes
    multi-tone signals the reference workload for estimator accuracy tests.
    """
    freqs = list(frequencies)
    if not freqs:
        raise ValueError("need at least one frequency")
    amps = list(amplitudes) if amplitudes is not None else [1.0] * len(freqs)
    if len(amps) != len(freqs):
        raise ValueError("frequencies and amplitudes must have the same length")
    times, interval = _time_axis(duration, sampling_rate)
    values = np.full(times.shape, float(offset))
    for frequency, amplitude in zip(freqs, amps):
        values = values + amplitude * np.sin(2 * math.pi * frequency * times)
    return TimeSeries(values, interval, name=name)


def two_tone_figure3(duration: float = 1.0, sampling_rate: float = 2000.0) -> TimeSeries:
    """The exact illustrative signal of Figure 3: 400 Hz + 440 Hz tones.

    Sampled at 2000 Hz by default (comfortably above its 880 Hz Nyquist
    rate) so the down-sampling experiments of the figure can be run on it.
    """
    return multi_tone([400.0, 440.0], duration, sampling_rate, name="figure3_two_tone")
