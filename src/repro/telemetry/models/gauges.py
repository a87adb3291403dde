"""Gauge metrics: temperature, 5th-percentile CPU utilisation, memory usage, link utilisation.

These metrics track slowly varying physical or load state.  Their model is
a baseline level plus a diurnal load cycle plus band-limited random
variation (whose bandwidth is the device-specific parameter that fixes the
true Nyquist rate), with measurement noise and sensor quantisation on top.
Thermal inertia is why the paper singles out temperature as the canonical
band-limited metric ("the underlying thermodynamics limit the maximum rate
at which temperatures change").
"""

from __future__ import annotations

import numpy as np

from ...signals.timeseries import TimeSeries
from ..metrics import MetricSpec
from ..profiles import MetricParameters
from .common import (band_limited_component, broadband_component, diurnal_component,
                     finalize_trace, time_grid)

__all__ = ["generate_gauge_trace"]


def generate_gauge_trace(spec: MetricSpec, params: MetricParameters,
                         duration: float, interval: float,
                         rng: np.random.Generator | None = None,
                         device_name: str = "") -> TimeSeries:
    """Generate one gauge trace.

    Parameters
    ----------
    spec / params:
        Metric description and per-device generative parameters.
    duration:
        Trace length in seconds.
    interval:
        Sampling interval of the produced trace in seconds (use the
        metric's production ``poll_interval`` to emulate today's system, or
        something much smaller to produce a ground-truth reference).
    """
    rng = rng or np.random.default_rng(params.seed)
    n = time_grid(duration, interval).shape[0]

    # The diurnal cycle only belongs in the signal when the device's
    # bandwidth actually extends up to (or beyond) one cycle per day;
    # otherwise the metric is slower than a day and the band-limited
    # component alone carries the variation.
    diurnal_amplitude = params.amplitude * 0.6 if params.bandwidth_hz >= 1.0 / 86400.0 else 0.0
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    values = np.full(n, params.level)
    # A zero-amplitude cycle adds +-0.0 to a positive level: skipping it
    # leaves every byte as it is.
    if diurnal_amplitude:
        values += diurnal_component(n, interval, diurnal_amplitude, phase=phase)
    values += band_limited_component(n, interval, params.bandwidth_hz,
                                     params.amplitude * 0.4 if diurnal_amplitude else params.amplitude,
                                     rng)
    if params.broadband:
        # Fast, unresolved fluctuations (e.g. a fan-speed control loop or a
        # noisy sensor) that make the trace look aliased at any realistic
        # polling rate.
        values += broadband_component(n, params.amplitude * 0.8, rng)
    return finalize_trace(values, spec, params, interval, rng, device_name)
