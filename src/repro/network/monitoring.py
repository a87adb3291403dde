"""Monitoring deployment: which metrics are polled on which fabric devices.

This is the glue between the topology (:mod:`repro.network.topology`), the
telemetry generators (:mod:`repro.telemetry`) and the pipeline simulator
(:mod:`repro.pipeline`).  A :class:`DeploymentSpec` is the picklable
recipe: a fabric spec, a trace length, a seed and an oversampling factor.
``spec.open()`` builds the fabric, attaches the collector and returns a
:class:`DeploymentTraceSource`, which assigns metric specs to fabric
nodes, draws the per-(device, metric) generative parameters and serves
the reference (ground-truth) traces through the
:class:`~repro.telemetry.source.TraceSource` protocol.  The fleet
pipelines (``run_survey``, ``run_policy_survey``) therefore run over a
monitored fabric exactly like over a
:class:`~repro.telemetry.dataset.FleetDataset` -- with the crucial
difference that every measurement point is a real topology node, which
lets the cost model price its telemetry with actual hop counts.  The
multi-worker survey ships the spec to its process pool, and each worker
rebuilds the same source deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..signals.timeseries import TimeSeries
from ..telemetry.dataset import TracePair
from ..telemetry.metrics import METRIC_CATALOG
from ..telemetry.models import generate_trace
from ..telemetry.profiles import DeviceProfile, DeviceRole, draw_metric_parameters
from ..telemetry.source import BaseTraceSource
from .cost import TelemetryCostAccountant
from .topology import FabricSpec, NodeRole, TopologySpec, attach_collector, servers, switches

__all__ = ["DeploymentSpec", "DeploymentTraceSource"]

#: Which metric families make sense on which kind of fabric node.
_SWITCH_METRICS = ("Link util", "Unicast bytes", "Multicast bytes", "Unicast drops",
                   "Multicast drops", "In-bound discards", "Out-bound discards",
                   "FCS errors", "Lossy paths", "Peak egress BW", "Peak ingress BW",
                   "Temperature")
_SERVER_METRICS = ("5-pct CPU util", "Memory usage", "Temperature")

#: The survey order: switch metrics first, then the server-only ones.
_METRIC_ORDER = tuple(dict.fromkeys((*_SWITCH_METRICS, *_SERVER_METRICS)))

#: Fraction of measurement points drawn broadband (aliased-looking).
_BROADBAND_FRACTION = 0.11

_ROLE_MAP = {
    NodeRole.SPINE: DeviceRole.CORE_SWITCH,
    NodeRole.CORE: DeviceRole.CORE_SWITCH,
    NodeRole.AGGREGATION: DeviceRole.AGGREGATION_SWITCH,
    NodeRole.LEAF: DeviceRole.TOR_SWITCH,
    NodeRole.EDGE: DeviceRole.TOR_SWITCH,
    NodeRole.POP: DeviceRole.AGGREGATION_SWITCH,
    NodeRole.SERVER: DeviceRole.SERVER,
}


@dataclass(frozen=True)
class DeploymentSpec:
    """Picklable recipe for a monitoring deployment on any supported fabric.

    This is the deployment counterpart of
    :class:`~repro.telemetry.dataset.DatasetConfig`, and the only way to
    build a :class:`DeploymentTraceSource`: a hashable worker address
    from which a survey worker process deterministically rebuilds the
    fabric, the collector, the parameter draws and the resulting source
    -- traces regenerate bit-identically because everything derives from
    the seed.

    Attributes
    ----------
    topology:
        The fabric parameters: a leaf-spine
        :class:`~repro.network.topology.TopologySpec` (the default), a
        multi-tier Clos :class:`~repro.network.topology.FatTreeSpec`, or
        a :class:`~repro.network.topology.WanRingSpec`.  The collector
        (the hop-count anchor of the cost model) attaches to every
        spine/core of a datacenter fabric, and to site 0's gateway of a
        WAN ring, which makes hop counts -- and transmission prices --
        asymmetric across sites.
    trace_duration:
        Length of every reference trace, in seconds.
    seed:
        Master seed of the per-device parameter draws.
    oversample_factor:
        How much faster than the production polling rate the reference
        traces are generated (sampling policies need headroom to probe
        above today's rate).
    """

    topology: FabricSpec = TopologySpec()
    trace_duration: float = 43200.0
    seed: int = 11
    oversample_factor: float = 4.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.trace_duration) and self.trace_duration > 0):
            raise ValueError("trace_duration must be a positive finite number, "
                             f"got {self.trace_duration}")
        if not (math.isfinite(self.oversample_factor) and self.oversample_factor >= 1):
            raise ValueError("oversample_factor must be a finite number >= 1, "
                             f"got {self.oversample_factor}")

    def open(self) -> "DeploymentTraceSource":
        """Materialise the trace source this spec describes (the WorkerSpec hook)."""
        return DeploymentTraceSource(self)


class DeploymentTraceSource(BaseTraceSource):
    """A monitored fabric served through the ``TraceSource`` protocol.

    Built from a :class:`DeploymentSpec`: ``topology`` is the spec's
    fabric with the collector (``collector``) attached.  Every switch is
    monitored on the switch metrics and every server on the server
    metrics.  Pairs come grouped by metric (the survey order), each a
    :class:`~repro.telemetry.dataset.TracePair` whose device id is the
    fabric node name -- so :meth:`accountant` prices every record with
    real hop counts.  Traces are reference traces: generated
    ``oversample_factor`` times faster than the metric's production
    polling rate, which gives sampling policies the headroom to probe
    above today's rate.
    """

    def __init__(self, spec: DeploymentSpec) -> None:
        self.spec = spec
        self.topology = spec.topology.build()
        self.collector = attach_collector(self.topology)
        self._pairs: list[TracePair] | None = None
        self._by_metric: dict[str, list[TracePair]] = {}

    def accountant(self) -> TelemetryCostAccountant:
        """A cost accountant on this deployment's own fabric and collector.

        Prices every measurement point with its real hop count -- the same
        graph the traces come from, so consumers do not have to rebuild
        the topology a second time.
        """
        return TelemetryCostAccountant(topology=self.topology, collector=self.collector)

    # ------------------------------------------------------------------
    def pairs(self) -> list[TracePair]:
        """Every measurement point, grouped by metric in survey order (cached).

        Each point's device is its node's
        :class:`~repro.telemetry.profiles.DeviceProfile` (device id =
        fabric node name).  Profile seeds are drawn from the spec's seed,
        switches first, then servers, each in node order.
        """
        if self._pairs is None:
            by_metric: dict[str, list[TracePair]] = {name: [] for name in _METRIC_ORDER}
            rng = np.random.default_rng(self.spec.seed)
            for nodes, metric_names in ((switches(self.topology), _SWITCH_METRICS),
                                        (servers(self.topology), _SERVER_METRICS)):
                for node in nodes:
                    for pair in self._pairs_for_node(node, metric_names, rng):
                        by_metric[pair.metric.name].append(pair)
            self._by_metric = by_metric
            self._pairs = [pair for name in _METRIC_ORDER for pair in by_metric[name]]
        return self._pairs

    def _pairs_for_node(self, node: str, metric_names: Sequence[str],
                        rng: np.random.Generator) -> list[TracePair]:
        role = _ROLE_MAP.get(self.topology.nodes[node].get("role"), DeviceRole.SERVER)
        profile = DeviceProfile(device_id=node, role=role,
                                seed=int(rng.integers(0, 2 ** 31 - 1)))
        pairs = []
        for name in metric_names:
            metric = METRIC_CATALOG[name]
            params = draw_metric_parameters(
                metric, profile, self.spec.trace_duration,
                broadband_fraction=_BROADBAND_FRACTION)
            pairs.append(TracePair(metric, profile, params))
        return pairs

    def pairs_for_metric(self, metric_name: str) -> list[TracePair]:
        self.pairs()
        return list(self._by_metric.get(metric_name, []))

    def metric_names(self) -> list[str]:
        return list(_METRIC_ORDER)

    @property
    def trace_duration(self) -> float:
        return self.spec.trace_duration

    def worker_spec(self) -> DeploymentSpec:
        return self.spec

    def pair_content_token(self, pair: TracePair) -> str:
        """Identity of one reference trace: the deployment spec plus the
        point's generative parameters."""
        return (f"{self.spec!r}|{pair.metric.name}|{pair.device.device_id}|"
                f"{pair.parameters!r}")

    def load(self, pair: TracePair) -> TimeSeries:
        """Generate the reference trace for one measurement point.

        The one recipe for a fabric point's trace: the point's own seed,
        sampled every ``poll_interval / oversample_factor`` seconds (with
        ``oversample_factor=1`` that is what today's polling collects).
        """
        interval = pair.metric.poll_interval / self.spec.oversample_factor
        rng = np.random.default_rng(pair.parameters.seed)
        return generate_trace(pair.metric, pair.parameters, self.spec.trace_duration,
                              interval=interval, rng=rng, device_name=pair.device.device_id)
