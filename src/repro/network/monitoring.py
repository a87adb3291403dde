"""Monitoring deployment: which metrics are polled on which fabric devices.

This is the glue between the topology (:mod:`repro.network.topology`), the
telemetry generators (:mod:`repro.telemetry`) and the pipeline simulator
(:mod:`repro.pipeline`): a :class:`MonitoringDeployment` assigns metric
specs to fabric nodes and draws the per-(device, metric) generative
parameters the reference (ground-truth) traces are generated from.

:class:`DeploymentTraceSource` exposes a deployment through the
:class:`~repro.telemetry.source.TraceSource` protocol, so the fleet
pipelines (``run_survey``, ``run_policy_survey``) run over a monitored
fabric exactly like over a :class:`~repro.telemetry.dataset.FleetDataset`
-- with the crucial difference that every measurement point is a real
topology node, which lets the cost model price its telemetry with actual
hop counts.  :class:`DeploymentSpec` is the picklable worker address: a
leaf-spine recipe the multi-worker survey ships to its process pool and
rebuilds deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..signals.timeseries import TimeSeries
from ..telemetry.dataset import TracePair
from ..telemetry.metrics import METRIC_CATALOG
from ..telemetry.models import generate_trace
from ..telemetry.profiles import DeviceProfile, DeviceRole, draw_metric_parameters
from ..telemetry.source import BaseTraceSource
from .cost import CostModel, TelemetryCostAccountant
from .topology import (Fabric, FabricSpec, NodeRole, TopologySpec, WanRingSpec,
                       attach_collector, servers, switches)

__all__ = ["MonitoringDeployment", "DeploymentSpec", "DeploymentTraceSource"]

#: Which metric families make sense on which kind of fabric node.
_SWITCH_METRICS = ("Link util", "Unicast bytes", "Multicast bytes", "Unicast drops",
                   "Multicast drops", "In-bound discards", "Out-bound discards",
                   "FCS errors", "Lossy paths", "Peak egress BW", "Peak ingress BW",
                   "Temperature")
_SERVER_METRICS = ("5-pct CPU util", "Memory usage", "Temperature")

_ROLE_MAP = {
    NodeRole.SPINE: DeviceRole.CORE_SWITCH,
    NodeRole.CORE: DeviceRole.CORE_SWITCH,
    NodeRole.AGGREGATION: DeviceRole.AGGREGATION_SWITCH,
    NodeRole.LEAF: DeviceRole.TOR_SWITCH,
    NodeRole.EDGE: DeviceRole.TOR_SWITCH,
    NodeRole.POP: DeviceRole.AGGREGATION_SWITCH,
    NodeRole.SERVER: DeviceRole.SERVER,
}


@dataclass
class MonitoringDeployment:
    """A concrete monitoring deployment over a fabric.

    Parameters
    ----------
    topology:
        The fabric graph (see :mod:`repro.network.topology`).
    trace_duration:
        How long the reference traces should be, in seconds.
    seed:
        Master seed for parameter draws.
    switch_metrics / server_metrics:
        Metric names monitored on switches and servers respectively.
    broadband_fraction:
        Fraction of measurement points that are broadband (aliased-looking).
    """

    topology: Fabric
    trace_duration: float = 86400.0
    seed: int = 11
    switch_metrics: tuple[str, ...] = _SWITCH_METRICS
    server_metrics: tuple[str, ...] = _SERVER_METRICS
    broadband_fraction: float = 0.11
    _points: list[TracePair] | None = field(default=None, init=False, repr=False)

    def points(self) -> list[TracePair]:
        """All measurement points of the deployment, in node order (cached).

        Each point is a :class:`~repro.telemetry.dataset.TracePair` whose
        device is the node's :class:`~repro.telemetry.profiles.DeviceProfile`
        (device id = fabric node name).
        """
        if self._points is not None:
            return self._points
        rng = np.random.default_rng(self.seed)
        points: list[TracePair] = []
        for node in switches(self.topology):
            points.extend(self._points_for_node(node, self.switch_metrics, rng))
        for node in servers(self.topology):
            points.extend(self._points_for_node(node, self.server_metrics, rng))
        self._points = points
        return points

    def _points_for_node(self, node: str, metric_names: Sequence[str],
                         rng: np.random.Generator) -> list[TracePair]:
        role = _ROLE_MAP.get(self.topology.nodes[node].get("role"), DeviceRole.SERVER)
        profile = DeviceProfile(device_id=node, role=role,
                                seed=int(rng.integers(0, 2 ** 31 - 1)))
        points = []
        for name in metric_names:
            spec = METRIC_CATALOG[name]
            params = draw_metric_parameters(
                spec, profile, self.trace_duration,
                broadband_fraction=self.broadband_fraction,
                rng=np.random.default_rng(profile.metric_seed(name)))
            points.append(TracePair(spec, profile, params))
        return points


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeploymentSpec:
    """Picklable recipe for a monitoring deployment on any supported fabric.

    This is the deployment counterpart of
    :class:`~repro.telemetry.dataset.DatasetConfig`: a hashable worker
    address from which a survey worker process deterministically rebuilds
    the fabric, the collector attachment, the deployment's parameter
    draws and the resulting :class:`DeploymentTraceSource` -- traces
    regenerate bit-identically because everything derives from the seed.

    Attributes
    ----------
    topology:
        The fabric parameters: a leaf-spine
        :class:`~repro.network.topology.TopologySpec` (the default), a
        multi-tier Clos :class:`~repro.network.topology.FatTreeSpec`, or
        a :class:`~repro.network.topology.WanRingSpec`.
    trace_duration / seed / broadband_fraction:
        Passed to :class:`MonitoringDeployment`.
    oversample_factor:
        How much faster than the production polling rate the reference
        traces are generated (sampling policies need headroom to probe
        above today's rate).
    with_collector:
        Attach a telemetry collector (the hop-count anchor of the cost
        model).  Datacenter fabrics attach it to every spine/core; a WAN
        ring attaches it at the spec's ``collector_site`` gateway, which
        makes hop counts -- and transmission prices -- asymmetric across
        sites.
    """

    topology: FabricSpec = TopologySpec()
    trace_duration: float = 43200.0
    seed: int = 11
    broadband_fraction: float = 0.11
    oversample_factor: float = 4.0
    with_collector: bool = True

    def __post_init__(self) -> None:
        if self.oversample_factor < 1:
            raise ValueError("oversample_factor must be >= 1")

    def build_topology(self) -> tuple[Fabric, str | None]:
        """The fabric graph plus the collector node name (None if detached)."""
        graph = self.topology.build()
        if not self.with_collector:
            return graph, None
        if isinstance(self.topology, WanRingSpec):
            collector = attach_collector(graph, [self.topology.gateway()])
        else:
            collector = attach_collector(graph)
        return graph, collector

    def open(self) -> "DeploymentTraceSource":
        """Materialise the trace source this spec describes (the WorkerSpec hook)."""
        graph, collector = self.build_topology()
        deployment = MonitoringDeployment(graph, trace_duration=self.trace_duration,
                                          seed=self.seed,
                                          broadband_fraction=self.broadband_fraction)
        return DeploymentTraceSource(deployment, oversample_factor=self.oversample_factor,
                                     spec=self, collector=collector)


class DeploymentTraceSource(BaseTraceSource):
    """A monitoring deployment served through the ``TraceSource`` protocol.

    Pairs are the deployment's measurement points grouped by metric (the
    survey order), each exposed as a
    :class:`~repro.telemetry.dataset.TracePair` whose device id is the
    fabric node name -- so a
    :class:`~repro.network.cost.TelemetryCostAccountant` built on the
    same topology prices every record with real hop counts.  Traces are
    the deployment's reference traces: generated ``oversample_factor``
    times faster than the metric's production polling rate, which gives
    sampling policies the headroom to probe above today's rate.

    Multi-worker runs need a :class:`DeploymentSpec` (build the source
    via ``spec.open()`` or pass ``spec=``); a source wrapped around an
    arbitrary hand-built deployment still serves single-process surveys.
    """

    def __init__(self, deployment: MonitoringDeployment,
                 oversample_factor: float = 4.0,
                 spec: DeploymentSpec | None = None,
                 collector: str | None = None) -> None:
        if oversample_factor < 1:
            raise ValueError("oversample_factor must be >= 1")
        self.deployment = deployment
        self.oversample_factor = oversample_factor
        self.spec = spec
        self.collector = collector
        self._metric_order = list(dict.fromkeys((*deployment.switch_metrics,
                                                 *deployment.server_metrics)))
        self._pairs: list[TracePair] | None = None
        self._by_metric: dict[str, list[TracePair]] = {}

    def accountant(self, cost_model: CostModel | None = None) -> TelemetryCostAccountant:
        """A cost accountant on this deployment's own fabric and collector.

        Prices every measurement point with its real hop count -- the same
        graph the traces come from, so consumers do not have to rebuild
        the topology a second time.  Without a collector (a spec built
        with ``with_collector=False`` or a hand-built deployment), falls
        back to the accountant's ``default_hops`` for every device.
        """
        if self.collector is None:
            return TelemetryCostAccountant(cost_model=cost_model)
        return TelemetryCostAccountant(cost_model=cost_model,
                                       topology=self.deployment.topology,
                                       collector=self.collector)

    # ------------------------------------------------------------------
    def pairs(self) -> list[TracePair]:
        if self._pairs is None:
            by_metric = {name: [] for name in self._metric_order}
            for pair in self.deployment.points():
                by_metric[pair.metric.name].append(pair)
            self._by_metric = by_metric
            self._pairs = [pair for name in self._metric_order for pair in by_metric[name]]
        return self._pairs

    def pairs_for_metric(self, metric_name: str) -> list[TracePair]:
        self.pairs()
        return list(self._by_metric.get(metric_name, []))

    def metric_names(self) -> list[str]:
        return list(self._metric_order)

    @property
    def trace_duration(self) -> float:
        return self.deployment.trace_duration

    def worker_spec(self) -> DeploymentSpec:
        if self.spec is None:
            raise ValueError(
                "this DeploymentTraceSource wraps a hand-built deployment and has no "
                "picklable spec; construct it via DeploymentSpec(...).open() to use "
                "multi-worker surveys")
        return self.spec

    def pair_content_token(self, pair: TracePair) -> str:
        """Identity of one reference trace: the deployment spec plus the
        point's generative parameters.

        Hand-built deployments (no spec) raise via :meth:`worker_spec`:
        without a frozen recipe their traces have no stable identity to
        cache under, and a store keyed on object state would serve stale
        records.
        """
        return (f"{self.worker_spec()!r}|oversample={self.oversample_factor!r}|"
                f"{pair.metric.name}|{pair.device.device_id}|{pair.parameters!r}")

    def load(self, pair: TracePair) -> TimeSeries:
        """Generate the reference trace for one measurement point.

        The one recipe for a fabric point's trace: the point's own seed,
        sampled every ``poll_interval / oversample_factor`` seconds (with
        ``oversample_factor=1`` that is what today's polling collects).
        """
        interval = pair.metric.poll_interval / self.oversample_factor
        rng = np.random.default_rng(pair.parameters.seed)
        return generate_trace(pair.metric, pair.parameters,
                              self.deployment.trace_duration, interval=interval,
                              rng=rng, device_name=pair.device.device_id)
