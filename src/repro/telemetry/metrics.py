"""The metric catalogue: the 14 metric families surveyed in the paper.

Figure 4 / Figure 5 of the paper cover (at least) these production
monitoring systems: 5th-percentile CPU utilisation, FCS errors, in-bound
discards, out-bound discards, link utilisation, lossy paths, memory usage,
multicast bytes, multicast drops, unicast bytes, unicast drops, peak
egress bandwidth, peak ingress bandwidth and temperature.

Each :class:`MetricSpec` records what the library needs to emulate the
corresponding production monitoring system: the family (how the generative
model behaves), the default production polling interval, the quantisation
step of the readings, value bounds, and units.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["MetricFamily", "MetricSpec", "METRIC_CATALOG", "metric_names"]


class MetricFamily(enum.Enum):
    """Behavioural family of a metric, which selects its generative model."""

    GAUGE = "gauge"            # smooth, diurnal-driven level (temperature, CPU, memory, link util)
    COUNTER_RATE = "counter"   # per-interval traffic volumes (unicast/multicast bytes)
    ERROR_COUNT = "error"      # sparse, bursty error counts (drops, discards, FCS errors)
    PATH_COUNT = "path"        # small integer counts of bad paths
    PEAK_BANDWIDTH = "peak"    # per-interval maxima of a fast underlying process


@dataclass(frozen=True)
class MetricSpec:
    """Static description of one production monitoring system.

    Attributes
    ----------
    name:
        Canonical metric name (matches the paper's figure labels).
    family:
        Behavioural family; selects the generative model in
        :mod:`repro.telemetry.models`.
    poll_interval:
        Production polling interval in seconds (the "current sampling
        rate" of Figures 1 and 4).
    quantization_step:
        Granularity of the reported readings (1.0 for integer counters,
        0.5 degC for temperature sensors, ...).
    minimum / maximum:
        Physical bounds of the metric (None = unbounded).
    units:
        Human-readable units, for reports.
    typical_level:
        Baseline magnitude of the metric; the generative models scale
        their output around this level.
    """

    name: str
    family: MetricFamily
    poll_interval: float
    quantization_step: float
    minimum: float | None
    maximum: float | None
    units: str
    typical_level: float

    @property
    def poll_rate(self) -> float:
        """Production sampling rate in Hz."""
        return 1.0 / self.poll_interval


#: The 14 metric families of the paper's survey.  Poll intervals follow
#: common production practice (SNMP counter scrapes every 30 s - 5 min,
#: temperature every 5 min, path probing every minute); the paper does not
#: list its intervals, so the exact values are this reproduction's choice.
METRIC_CATALOG: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in [
        MetricSpec("5-pct CPU util", MetricFamily.GAUGE, poll_interval=30.0,
                   quantization_step=1.0, minimum=0.0, maximum=100.0,
                   units="%", typical_level=30.0),
        MetricSpec("Temperature", MetricFamily.GAUGE, poll_interval=300.0,
                   quantization_step=0.5, minimum=10.0, maximum=95.0,
                   units="degC", typical_level=45.0),
        MetricSpec("Memory usage", MetricFamily.GAUGE, poll_interval=30.0,
                   quantization_step=1.0, minimum=0.0, maximum=100.0,
                   units="%", typical_level=55.0),
        MetricSpec("Link util", MetricFamily.GAUGE, poll_interval=30.0,
                   quantization_step=0.1, minimum=0.0, maximum=100.0,
                   units="%", typical_level=35.0),
        MetricSpec("Unicast bytes", MetricFamily.COUNTER_RATE, poll_interval=30.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="MB/interval", typical_level=2000.0),
        MetricSpec("Multicast bytes", MetricFamily.COUNTER_RATE, poll_interval=30.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="MB/interval", typical_level=50.0),
        MetricSpec("Unicast drops", MetricFamily.ERROR_COUNT, poll_interval=30.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="packets/interval", typical_level=5.0),
        MetricSpec("Multicast drops", MetricFamily.ERROR_COUNT, poll_interval=30.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="packets/interval", typical_level=2.0),
        MetricSpec("In-bound discards", MetricFamily.ERROR_COUNT, poll_interval=30.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="packets/interval", typical_level=3.0),
        MetricSpec("Out-bound discards", MetricFamily.ERROR_COUNT, poll_interval=30.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="packets/interval", typical_level=3.0),
        MetricSpec("FCS errors", MetricFamily.ERROR_COUNT, poll_interval=30.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="frames/interval", typical_level=1.0),
        MetricSpec("Lossy paths", MetricFamily.PATH_COUNT, poll_interval=60.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="paths", typical_level=4.0),
        MetricSpec("Peak egress BW", MetricFamily.PEAK_BANDWIDTH, poll_interval=60.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="Gbps", typical_level=12.0),
        MetricSpec("Peak ingress BW", MetricFamily.PEAK_BANDWIDTH, poll_interval=60.0,
                   quantization_step=1.0, minimum=0.0, maximum=None,
                   units="Gbps", typical_level=10.0),
    ]
}

#: Metric names in the order the paper's Figure 5 lists them (left to right).
FIGURE5_ORDER: tuple[str, ...] = (
    "Out-bound discards", "Unicast drops", "Multicast drops", "Multicast bytes",
    "Unicast bytes", "In-bound discards", "Memory usage", "Peak egress BW",
    "Peak ingress BW", "Link util", "Lossy paths", "5-pct CPU util",
    "Temperature", "FCS errors",
)

#: The 12 metrics that get their own CDF panel in Figure 4.
FIGURE4_METRICS: tuple[str, ...] = (
    "5-pct CPU util", "FCS errors", "In-bound discards", "Link util",
    "Lossy paths", "Memory usage", "Multicast bytes", "Multicast drops",
    "Peak egress BW", "Peak ingress BW", "Temperature", "Unicast bytes",
)


def metric_names() -> list[str]:
    """All metric names in the catalogue."""
    return list(METRIC_CATALOG)
