"""Noise generators used only as test input.

Tests import these as ``from signal_helpers import ...``; pytest puts
``tests/`` on ``sys.path`` because that is where the root ``conftest.py``
lives.
"""

from __future__ import annotations

import numpy as np

from repro.signals.timeseries import TimeSeries


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
