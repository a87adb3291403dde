"""Signal generators used only as test input: tones, flat lines and noise.

Tests import these as ``from signal_helpers import ...``; pytest puts
``tests/`` on ``sys.path`` because that is where the root ``conftest.py``
lives.
"""

from __future__ import annotations

import math

import numpy as np

from repro.signals.generators import _time_axis
from repro.signals.timeseries import TimeSeries


def constant(value: float, duration: float, sampling_rate: float,
             name: str = "constant") -> TimeSeries:
    """A flat signal.  Its Nyquist rate is (arbitrarily close to) zero."""
    times, interval = _time_axis(duration, sampling_rate)
    return TimeSeries(np.full(times.shape, float(value)), interval, name=name)


def sine(frequency: float, duration: float, sampling_rate: float,
         amplitude: float = 1.0, phase: float = 0.0, offset: float = 0.0,
         name: str = "sine") -> TimeSeries:
    """A single sinusoid; its Nyquist rate is exactly ``2 * frequency``."""
    if frequency < 0:
        raise ValueError("frequency must be non-negative")
    times, interval = _time_axis(duration, sampling_rate)
    values = offset + amplitude * np.sin(2 * math.pi * frequency * times + phase)
    return TimeSeries(values, interval, name=name)


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


def band_limited_noise(max_frequency: float, duration: float, sampling_rate: float,
                       amplitude: float = 1.0, rng: np.random.Generator | None = None,
                       name: str = "band_limited_noise") -> TimeSeries:
    """Gaussian noise whose spectrum is confined below ``max_frequency``.

    Constructed directly in the frequency domain: random phases and
    amplitudes below the cut-off, zeros above it.  The resulting signal has
    a hard band limit, so its Nyquist rate is ``2 * max_frequency``.
    """
    if max_frequency <= 0:
        raise ValueError("max_frequency must be positive")
    if max_frequency > sampling_rate / 2:
        raise ValueError("max_frequency must not exceed sampling_rate / 2")
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = rng or np.random.default_rng(0)
    interval = 1.0 / sampling_rate
    n = max(int(round(duration * sampling_rate)), 1)
    freqs = np.fft.rfftfreq(n, d=interval)
    spectrum = np.zeros(freqs.shape, dtype=np.complex128)
    in_band = (freqs > 0) & (freqs <= max_frequency)
    count = int(np.count_nonzero(in_band))
    if count:
        spectrum[in_band] = rng.normal(size=count) + 1j * rng.normal(size=count)
    values = np.fft.irfft(spectrum, n=n)
    peak = np.max(np.abs(values))
    if peak > 0:
        values = values / peak * amplitude
    return TimeSeries(values, interval, name=name)
