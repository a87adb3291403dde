"""Error counters: packet drops, discards and FCS errors per polling interval.

Error counters are sparse: they sit at (or near) zero most of the time and
produce bursts during episodes (congestion events, a flapping or corrupting
link -- the paper's §4.2 uses FCS errors as its running example).  Each
episode is a smooth pulse whose time constant is tied to the device's
bandwidth parameter: fast-recovering devices produce short episodes,
slowly draining ones produce long ones, and in both cases the pulse is
band-limited at (roughly) the device bandwidth.
"""

from __future__ import annotations

import math

import numpy as np

from ...signals.timeseries import TimeSeries
from ..metrics import MetricSpec
from ..profiles import MetricParameters
from .common import (add_gaussian_pulses, band_limited_component, broadband_component,
                     finalize_trace, time_grid)

__all__ = ["generate_error_count_trace", "episode_time_constant"]


def episode_time_constant(bandwidth_hz: float) -> float:
    """Decay time constant (seconds) of an error episode for a given bandwidth.

    An exponential pulse ``exp(-t / tau)`` has a Lorentzian spectrum whose
    half-power corner sits at ``1 / (2 * pi * tau)``; inverting that maps
    the device's bandwidth parameter to the episode decay time.
    """
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth_hz must be positive")
    return 1.0 / (2.0 * math.pi * bandwidth_hz)


def generate_error_count_trace(spec: MetricSpec, params: MetricParameters,
                               duration: float, interval: float,
                               rng: np.random.Generator | None = None,
                               device_name: str = "") -> TimeSeries:
    """Generate one sparse error-counter trace (events per interval).

    Episodes are added by :func:`~.common.add_gaussian_pulses`, which
    evaluates the Gaussian bell once per trace.  That is bit-exact
    whenever ``k * interval`` is an exact float64 for every sample index
    ``k`` (every catalogue poll interval and its /2 and /4 oversampled
    grids); on other grids the pulses are evaluated one by one.
    """
    rng = rng or np.random.default_rng(params.seed)
    times = time_grid(duration, interval)
    n = times.shape[0]

    # A small smoothly varying background (e.g. a link with a persistent
    # low-grade problem) keeps the trace from being exactly zero between
    # episodes and carries the band-limited signature the estimator reads.
    background = params.level * 0.3 * (
        1.0 + band_limited_component(n, interval, params.bandwidth_hz, 1.0, rng))
    values = np.maximum(background, 0.0)

    # Episodes build up and drain over the device's characteristic time
    # scale; a Gaussian bell keeps the pulse band-limited to ~1/(2*pi*tau)
    # so the episode does not leak energy above the device bandwidth.
    tau = max(episode_time_constant(params.bandwidth_hz), 2.0 * interval)
    expected_episodes = params.burst_rate_per_day * duration / 86400.0
    episode_count = int(rng.poisson(max(expected_episodes, 0.0)))
    span = max(int(round(4.0 * tau / interval)), 1)
    add_gaussian_pulses(values, times, interval, tau, span, episode_count,
                        scale=params.level, low=2.0, high=10.0, rng=rng)

    if params.broadband:
        values = values + np.abs(broadband_component(n, params.level, rng))

    return finalize_trace(values, spec, params, interval, rng, device_name)
