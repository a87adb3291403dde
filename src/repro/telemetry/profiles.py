"""Device profiles and per-device metric parameters.

The paper's key empirical observation is *heterogeneity*: "Within a metric,
the Nyquist rate varies widely across devices" (Figure 5) -- for
temperature it spans nearly four orders of magnitude.  The fleet generator
therefore draws, for every (metric, device) pair, an independent set of
:class:`MetricParameters` whose ``bandwidth_hz`` is log-uniformly spread
between (roughly) one cycle per trace and the metric's measurement band
edge, with a configurable fraction of pairs made deliberately broadband so
they exercise the estimator's "probably already aliased" path (the ~11 %
of pairs the paper flags as under-sampled / needing inspection).
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .metrics import MetricSpec

__all__ = ["DeviceRole", "DeviceProfile", "MetricParameters", "draw_metric_parameters",
           "BROADBAND_FRACTION"]

#: Share of pairs drawn broadband, i.e. whose traces look aliased (paper: ~11 %).
BROADBAND_FRACTION = 0.11


class DeviceRole(enum.Enum):
    """Where in the datacenter a device sits (affects level and variability)."""

    TOR_SWITCH = "tor"
    AGGREGATION_SWITCH = "agg"
    CORE_SWITCH = "core"
    SERVER = "server"


@dataclass(frozen=True)
class DeviceProfile:
    """A monitored device: identity, role, and the seed all its traces derive from."""

    device_id: str
    role: DeviceRole
    seed: int

    def metric_seed(self, metric_name: str) -> int:
        """Deterministic per-(device, metric) seed so traces are reproducible.

        Uses a stable digest rather than Python's built-in ``hash``, which
        is salted per process and would make traces differ between runs.
        """
        digest = hashlib.sha256(f"{self.device_id}|{metric_name}|{self.seed}".encode()).digest()
        return int.from_bytes(digest[:4], "little") % (2 ** 31)


@dataclass(frozen=True)
class MetricParameters:
    """Per-(device, metric) generative parameters.

    Attributes
    ----------
    bandwidth_hz:
        Highest frequency at which the *structured* part of the signal has
        appreciable energy; the true Nyquist rate of the underlying metric
        is approximately ``2 * bandwidth_hz``.
    level:
        Baseline value of the metric on this device.
    amplitude:
        Peak magnitude of the structured variation around the baseline.
    noise_std:
        Standard deviation of white measurement noise.
    broadband:
        When True the trace carries significant energy across the whole
        measurable band; the Section 3.2 estimator will (correctly) refuse
        to report a Nyquist rate for it.
    burst_rate_per_day:
        Expected number of error/burst episodes per day (used by the
        error-counter and peak-bandwidth models).
    seed:
        RNG seed for this specific trace.
    """

    bandwidth_hz: float
    level: float
    amplitude: float
    noise_std: float
    broadband: bool
    burst_rate_per_day: float
    seed: int

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.amplitude < 0 or self.noise_std < 0:
            raise ValueError("amplitude and noise_std must be non-negative")
        if self.burst_rate_per_day < 0:
            raise ValueError("burst_rate_per_day must be non-negative")

    @property
    def true_nyquist_rate(self) -> float:
        """The Nyquist rate of the structured component, ``2 * bandwidth_hz``."""
        return 2.0 * self.bandwidth_hz


#: Role-dependent scaling of the baseline level: core switches run hotter
#: and carry more traffic than ToR switches or servers.
_ROLE_LEVEL_SCALE = {
    DeviceRole.TOR_SWITCH: 0.8,
    DeviceRole.AGGREGATION_SWITCH: 1.0,
    DeviceRole.CORE_SWITCH: 1.3,
    DeviceRole.SERVER: 0.9,
}


def draw_metric_parameters(spec: MetricSpec, profile: DeviceProfile,
                           trace_duration: float,
                           broadband_fraction: float = BROADBAND_FRACTION,
                           rng: np.random.Generator | None = None) -> MetricParameters:
    """Draw the generative parameters for one (device, metric) pair.

    Parameters
    ----------
    spec:
        The metric being monitored (sets units, level, polling rate).
    profile:
        The device being monitored (sets the seed and the role scaling).
    trace_duration:
        Length of the trace that will be generated, in seconds.  The lowest
        observable frequency is one cycle per trace, so bandwidths are
        drawn at or above (half of) that.
    broadband_fraction:
        Probability that the pair is broadband (will look aliased to the
        estimator); the paper reports ~11 % of pairs in that category.
    rng:
        The draws' generator; defaults to one seeded with the pair's
        ``metric_seed``, which is also the returned trace seed.
    """
    if trace_duration <= 0:
        raise ValueError("trace_duration must be positive")
    if not 0 <= broadband_fraction <= 1:
        raise ValueError("broadband_fraction must be in [0, 1]")
    seed = profile.metric_seed(spec.name)
    rng = rng or np.random.default_rng(seed)

    # The measurable band of the production poller tops out at half its
    # polling rate; the lowest frequency a trace of this length can show is
    # one cycle per trace.
    band_edge = spec.poll_rate / 2.0
    lowest = 1.0 / trace_duration
    low = min(lowest * 0.5, band_edge * 0.5)
    high = band_edge * 0.8
    if high <= low:
        high = low * 2.0
    # Log-spread with a bias towards slow signals: most devices are stable
    # most of the time, which is what produces the orders-of-magnitude
    # per-device variation of Figure 5 and the heavy-tailed reduction
    # ratios of Figure 4 (a sizeable share of pairs reducible by ~1000x).
    position = float(rng.uniform(0.0, 1.0)) ** 2.8
    bandwidth = float(math.exp(math.log(low) + position * (math.log(high) - math.log(low))))

    level_scale = _ROLE_LEVEL_SCALE[profile.role] * float(rng.uniform(0.7, 1.3))
    level = spec.typical_level * level_scale
    amplitude = max(level * float(rng.uniform(0.15, 0.45)), spec.quantization_step)
    # Measurement noise sits well below the structured variation so the
    # 99 % energy threshold can do its job of discarding it.
    noise_std = amplitude * float(rng.uniform(0.002, 0.01))
    broadband = bool(rng.random() < broadband_fraction)
    burst_rate = float(rng.uniform(2.0, 40.0))

    return MetricParameters(
        bandwidth_hz=bandwidth,
        level=level,
        amplitude=amplitude,
        noise_std=noise_std,
        broadband=broadband,
        burst_rate_per_day=burst_rate,
        seed=seed,
    )
