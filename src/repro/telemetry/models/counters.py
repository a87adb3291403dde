"""Traffic-volume counters: unicast/multicast bytes per polling interval.

Switch byte counters report how much traffic crossed an interface in each
polling interval.  Traffic volume follows the datacenter's load (diurnal)
with multiplicative band-limited variation and occasional short surges.
Values are non-negative and quantised to whole units (the SNMP counter
granularity after normalisation).
"""

from __future__ import annotations

import numpy as np

from ...signals.timeseries import TimeSeries
from ..metrics import MetricSpec
from ..profiles import MetricParameters
from .common import (band_limited_component, broadband_component, diurnal_component,
                     finalize_trace, time_grid)

__all__ = ["generate_counter_trace"]


def generate_counter_trace(spec: MetricSpec, params: MetricParameters,
                           duration: float, interval: float,
                           rng: np.random.Generator | None = None,
                           device_name: str = "") -> TimeSeries:
    """Generate one traffic-volume counter trace (bytes per interval)."""
    rng = rng or np.random.default_rng(params.seed)
    n = time_grid(duration, interval).shape[0]

    diurnal_amplitude = 0.5 if params.bandwidth_hz >= 1.0 / 86400.0 else 0.0
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    # Multiplicative structure: the counter scales with load, it does not
    # add to it.  The modulation is kept above -0.9 so volumes stay positive.
    # A zero-amplitude cycle is skipped: adding +-0.0 can only flip the
    # sign of a zero, which ``1.0 + modulation`` erases.
    modulation = band_limited_component(n, interval, params.bandwidth_hz, 0.4, rng)
    if diurnal_amplitude:
        modulation += diurnal_component(n, interval, diurnal_amplitude, phase=phase)
    if params.broadband:
        modulation += broadband_component(n, 0.5, rng)
    np.maximum(modulation, -0.9, out=modulation)
    modulation += 1.0
    values = params.level * modulation

    # Occasional traffic surges (bulk transfers, re-replication).  Surges
    # ramp up and down over a time scale tied to the device's bandwidth so
    # they do not inject energy above it (a surge is load shifting, not an
    # instantaneous step).
    expected_surges = params.burst_rate_per_day * duration / 86400.0
    surge_count = int(rng.poisson(max(expected_surges * 0.25, 0.0)))
    if surge_count:
        surge_width = float(np.clip(1.0 / (2.0 * params.bandwidth_hz), 4.0 * interval, duration / 4.0))
        width_samples = max(int(round(surge_width / interval)), 2)
        bump = np.sin(np.linspace(0.0, np.pi, width_samples)) ** 2
        for _ in range(surge_count):
            start = int(rng.integers(0, n))
            stop = min(start + width_samples, n)
            magnitude = params.level * float(rng.uniform(0.2, 0.6))
            values[start:stop] += magnitude * bump[:stop - start]

    return finalize_trace(values, spec, params, interval, rng, device_name)
