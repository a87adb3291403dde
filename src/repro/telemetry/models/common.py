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


#: Period of the diurnal cycle, in seconds.
_DAY_SECONDS = 86400.0


@lru_cache(maxsize=32)
def _diurnal_base(n: int, interval: float) -> tuple[np.ndarray, np.ndarray]:
    """The diurnal phase ramp ``2*pi*t/day`` on the ``(n, interval)`` grid and its double."""
    base = 2.0 * math.pi * _time_grid(n, interval) / _DAY_SECONDS
    double = 2.0 * base
    base.flags.writeable = False
    double.flags.writeable = False
    return base, double


@lru_cache(maxsize=32)
def _band_weights(n: int, interval: float) -> np.ndarray:
    """The 1/f weights ``1 / sqrt(f / f[1])`` of every non-DC bin of the ``(n, interval)`` grid."""
    freqs = _rfft_frequencies(n, interval)[1:]
    weights = 1.0 / np.sqrt(freqs / freqs[0])
    weights.flags.writeable = False
    return weights


def band_limited_component(n: int, interval: float, bandwidth_hz: float,
                           amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Random variation confined (almost) entirely below ``bandwidth_hz``.

    Built in the frequency domain with random phases.  At least one non-DC
    bin is always populated, so even devices whose bandwidth is below one
    cycle per trace produce *some* slow variation (their estimated Nyquist
    rate then bottoms out at the trace's frequency resolution, which is the
    best any trace-driven estimator can do).

    The frequency grid ascends from 0, so the in-band bins are always the
    prefix ``1..count`` of the non-DC bins; ``count`` is one
    ``searchsorted`` on the shared grid.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    if amplitude == 0:
        return np.zeros(n)
    freqs = _rfft_frequencies(n, interval)
    # A bandwidth below the first non-DC bin (or NaN) still populates bin 1.
    count = (int(np.searchsorted(freqs, bandwidth_hz, side="right")) - 1
             if bandwidth_hz >= freqs[1] else 1)
    # 1/f-flavoured weighting inside the band makes the variation look like
    # real operational metrics (most energy at the slowest scales) while
    # still placing measurable energy near the band edge.
    phases = rng.uniform(0.0, 2.0 * math.pi, size=count)
    spectrum = np.zeros(freqs.shape, dtype=np.complex128)
    spectrum[1:count + 1] = _band_weights(n, interval)[:count] * np.exp(1j * phases)
    values = np.fft.irfft(spectrum, n=n)
    peak = float(np.max(np.abs(values)))
    if peak > 0:
        values /= peak
        values *= amplitude
    return values


def broadband_component(n: int, amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Full-band (white) variation, used for deliberately aliased-looking traces."""
    if amplitude <= 0:
        return np.zeros(n)
    return rng.normal(scale=amplitude, size=n)


def diurnal_component(n: int, interval: float, amplitude: float,
                      phase: float = 0.0) -> np.ndarray:
    """A one-day (86400 s) cycle with a mild second harmonic (the load backbone).

    Sampled on the :func:`time_grid` of ``n`` samples ``interval`` seconds
    apart; the phase ramp is built once per grid.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    base, double = _diurnal_base(n, interval)
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
    """Apply measurement noise, physical bounds and quantisation; wrap as a TimeSeries.

    Every step writes into one fresh array (``values`` is left as it is)
    through the ufuncs ``np.clip`` and ``np.round`` dispatch to, so the
    bytes are theirs: ``np.clip`` with one bound unset is ``np.maximum`` /
    ``np.minimum``, and ``np.round`` to zero decimals is ``np.rint``.
    """
    if params.noise_std > 0:
        out = rng.normal(scale=params.noise_std, size=values.shape[0])
        out += values
    else:
        out = np.array(values, dtype=np.float64)
    _bound(out, spec)
    step = spec.quantization_step
    np.divide(out, step, out=out)
    np.rint(out, out=out)
    np.multiply(out, step, out=out)
    _bound(out, spec)
    name = f"{spec.name}@{device_name}" if device_name else spec.name
    return TimeSeries(out, interval, name=name)


def _bound(values: np.ndarray, spec: MetricSpec) -> None:
    """Clip ``values`` in place to the metric's physical range, if it has one."""
    if spec.minimum is not None and spec.maximum is not None:
        np.clip(values, spec.minimum, spec.maximum, out=values)
    elif spec.minimum is not None:
        np.maximum(values, spec.minimum, out=values)
    elif spec.maximum is not None:
        np.minimum(values, spec.maximum, out=values)
