"""Shared building blocks for the per-family telemetry models.

Every model composes the same ingredients:

* a **structured component** -- band-limited random variation whose highest
  frequency is the device's ``bandwidth_hz`` (this is what determines the
  metric's true Nyquist rate);
* optional **broadband content** -- white, full-band variation used for the
  ~11 % of pairs whose traces should look aliased to the estimator;
* **measurement noise** and **quantisation**, which are the practical
  complications Sections 3.2 and 4.3 of the paper discuss.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ...core.psd import _rfft_frequencies
from ...signals.timeseries import TimeSeries
from ..metrics import MetricSpec
from ..profiles import MetricParameters

__all__ = [
    "time_grid",
    "band_limited_component",
    "broadband_component",
    "diurnal_component",
    "add_gaussian_pulses",
    "finalize_trace",
]


def time_grid(duration: float, interval: float) -> np.ndarray:
    """Timestamps (relative to the trace start) for a trace of ``duration`` seconds.

    The grid is shared by every trace of the same shape, so it is read-only.
    """
    if duration <= 0 or interval <= 0:
        raise ValueError("duration and interval must be positive")
    return _time_grid(max(int(round(duration / interval)), 2), interval)


@lru_cache(maxsize=32)
def _time_grid(n: int, interval: float) -> np.ndarray:
    times = np.arange(n) * interval
    times.flags.writeable = False
    return times


@lru_cache(maxsize=32)
def _diurnal_base(n: int, interval: float, day_seconds: float) -> tuple[np.ndarray, np.ndarray]:
    """The diurnal phase ramp ``2*pi*t/day`` on the ``(n, interval)`` grid and its double."""
    base = 2.0 * math.pi * _time_grid(n, interval) / day_seconds
    double = 2.0 * base
    base.flags.writeable = False
    double.flags.writeable = False
    return base, double


def band_limited_component(n: int, interval: float, bandwidth_hz: float,
                           amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Random variation confined (almost) entirely below ``bandwidth_hz``.

    Built in the frequency domain with random phases.  At least one non-DC
    bin is always populated, so even devices whose bandwidth is below one
    cycle per trace produce *some* slow variation (their estimated Nyquist
    rate then bottoms out at the trace's frequency resolution, which is the
    best any trace-driven estimator can do).
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    freqs = _rfft_frequencies(n, interval)
    spectrum = np.zeros(freqs.shape, dtype=np.complex128)
    in_band = (freqs > 0) & (freqs <= bandwidth_hz)
    if not np.any(in_band) and len(freqs) > 1:
        in_band[1] = True
    count = int(np.count_nonzero(in_band))
    if count == 0 or amplitude == 0:
        return np.zeros(n)
    # 1/f-flavoured weighting inside the band makes the variation look like
    # real operational metrics (most energy at the slowest scales) while
    # still placing measurable energy near the band edge.
    band_freqs = freqs[in_band]
    weights = 1.0 / np.sqrt(band_freqs / band_freqs[0])
    phases = rng.uniform(0.0, 2.0 * math.pi, size=count)
    spectrum[in_band] = weights * np.exp(1j * phases)
    values = np.fft.irfft(spectrum, n=n)
    peak = float(np.max(np.abs(values)))
    if peak > 0:
        values = values / peak * amplitude
    return values


def broadband_component(n: int, amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Full-band (white) variation, used for deliberately aliased-looking traces."""
    if amplitude <= 0:
        return np.zeros(n)
    return rng.normal(scale=amplitude, size=n)


def diurnal_component(n: int, interval: float, amplitude: float,
                      phase: float = 0.0, day_seconds: float = 86400.0) -> np.ndarray:
    """A day/night cycle with a mild second harmonic (the load backbone).

    Sampled on the :func:`time_grid` of ``n`` samples ``interval`` seconds
    apart; the phase ramp is built once per grid.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    base, double = _diurnal_base(n, interval, day_seconds)
    return amplitude * (np.sin(base + phase) + 0.25 * np.sin(double + phase))


def _grid_is_exact(n: int, interval: float) -> bool:
    """Whether ``k * interval`` is an exact float64 for every ``0 <= k < n``.

    ``interval`` is ``numerator * 2**e`` with an integer ``numerator``, so
    ``k * interval`` is exact while ``k * numerator`` fits the 53-bit
    significand.  This holds for every catalogue poll interval (30, 60 and
    300 s) and their oversampled grids at factors 1, 2 and 4 (down to
    7.5 s), but not for, e.g., ``30 / 7`` s.
    """
    numerator, _ = float(interval).as_integer_ratio()
    return (n - 1) * numerator <= 2 ** 53


def add_gaussian_pulses(values: np.ndarray, times: np.ndarray, interval: float,
                        width: float, span: int, count: int, *, scale: float,
                        low: float, high: float, rng: np.random.Generator) -> None:
    """Add ``count`` Gaussian pulses of ``width`` seconds to ``values`` in place.

    Pulse by pulse, in stream order, draw the centre index
    (``rng.integers(0, n)``) and then the magnitude
    (``scale * rng.uniform(low, high)``), and add
    ``magnitude * exp(-0.5 * (dt / width) ** 2)`` over the ``span`` samples
    on either side of the centre (clipped to the trace), one pulse after
    the other so overlapping pulses sum in draw order.

    ``dt`` is ``times[i] - times[centre]`` on the grid
    ``times = arange(n) * interval``.  Whenever ``k * interval`` is exact
    for every ``k < n`` (see :func:`_grid_is_exact`) that offset equals
    ``(i - centre) * interval`` bit for bit, so one bell over every offset
    a pulse can reach, ``arange(-before, after) * interval``, is computed
    once per trace and sliced per pulse.  On any other grid each pulse
    evaluates its own offsets from ``times``.  Both give the same bytes.
    """
    if count == 0:
        return
    n = values.shape[0]
    before, after = min(span, n - 1), min(span, n)
    exact = _grid_is_exact(n, interval)
    if exact:
        bell = np.exp(-0.5 * ((np.arange(-before, after) * interval) / width) ** 2)
    for _ in range(count):
        centre = int(rng.integers(0, n))
        magnitude = scale * float(rng.uniform(low, high))
        start = max(centre - span, 0)
        stop = min(centre + span, n)
        if exact:
            pulse = bell[start - centre + before:stop - centre + before]
        else:
            pulse = np.exp(-0.5 * ((times[start:stop] - times[centre]) / width) ** 2)
        values[start:stop] += magnitude * pulse


def finalize_trace(values: np.ndarray, spec: MetricSpec, params: MetricParameters,
                   interval: float, rng: np.random.Generator,
                   device_name: str = "") -> TimeSeries:
    """Apply measurement noise, physical bounds and quantisation; wrap as a TimeSeries."""
    noisy = values + rng.normal(scale=params.noise_std, size=values.shape[0]) \
        if params.noise_std > 0 else values
    if spec.minimum is not None or spec.maximum is not None:
        noisy = np.clip(noisy, spec.minimum, spec.maximum)
    quantized = np.round(noisy / spec.quantization_step) * spec.quantization_step
    if spec.minimum is not None or spec.maximum is not None:
        quantized = np.clip(quantized, spec.minimum, spec.maximum)
    name = f"{spec.name}@{device_name}" if device_name else spec.name
    return TimeSeries(quantized, interval, name=name)
