"""Peak-bandwidth metrics: per-interval maxima of ingress/egress link throughput.

"Peak ingress/egress BW" reports, for each polling interval, the largest
throughput observed inside that interval.  Taking a maximum over a window
is a non-linear operation that inflates high-frequency content (microbursts
show up as isolated spikes), which is why these metrics sit towards the
faster end of the paper's Figure 5.  The model combines the load backbone
with spiky burst structure whose frequency follows the device's bandwidth
parameter.
"""

from __future__ import annotations

import numpy as np

from ...signals.timeseries import TimeSeries
from ..metrics import MetricSpec
from ..profiles import MetricParameters
from .common import (add_gaussian_pulses, band_limited_component, broadband_component,
                     diurnal_component, finalize_trace, time_grid)

__all__ = ["generate_peak_bandwidth_trace"]


def generate_peak_bandwidth_trace(spec: MetricSpec, params: MetricParameters,
                                  duration: float, interval: float,
                                  rng: np.random.Generator | None = None,
                                  device_name: str = "") -> TimeSeries:
    """Generate one peak-bandwidth trace (Gbps maxima per polling interval).

    Bursts are added by :func:`~.common.add_gaussian_pulses`, which
    evaluates the Gaussian bell once per trace.  That is bit-exact
    whenever ``k * interval`` is an exact float64 for every sample index
    ``k`` (every catalogue poll interval and its /2 and /4 oversampled
    grids); on other grids the bursts are evaluated one by one.
    """
    rng = rng or np.random.default_rng(params.seed)
    times = time_grid(duration, interval)
    n = times.shape[0]

    diurnal_amplitude = params.amplitude * 0.5 if params.bandwidth_hz >= 1.0 / 86400.0 else 0.0
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    values = np.full(n, params.level)
    # A zero-amplitude cycle adds +-0.0 to a positive level: skipping it
    # leaves every byte as it is.
    if diurnal_amplitude:
        values += diurnal_component(n, interval, diurnal_amplitude, phase=phase)
    values += band_limited_component(n, interval, params.bandwidth_hz,
                                     params.amplitude * 0.5, rng)

    # Burst periods: the per-interval max rises while a heavy flow (or a
    # burst of flows) is active, then falls back.  The rise/fall happens on
    # the device's characteristic time scale so the trace stays band-limited
    # at the device's bandwidth parameter.
    expected_bursts = params.burst_rate_per_day * duration / 86400.0
    burst_count = int(rng.poisson(max(expected_bursts, 0.0)))
    sigma = max(1.0 / (2.0 * np.pi * params.bandwidth_hz), 2.0 * interval)
    span = max(int(round(3.0 * sigma / interval)), 1)
    add_gaussian_pulses(values, times, interval, sigma, span, burst_count,
                        scale=params.amplitude, low=0.5, high=2.0, rng=rng)

    if params.broadband:
        values += np.abs(broadband_component(n, params.amplitude, rng))

    return finalize_trace(values, spec, params, interval, rng, device_name)
