"""Network substrate: topologies, monitoring deployment and cost model."""

from .cost import CostBreakdown, TelemetryCostAccountant
from .monitoring import DeploymentSpec, DeploymentTraceSource
from .topology import (Fabric, FabricSpec, FatTreeSpec, NodeRole, TopologySpec,
                       WanRingSpec, attach_collector, hop_counts, servers, switches)

__all__ = [
    "Fabric", "hop_counts",
    "NodeRole", "TopologySpec", "FatTreeSpec", "WanRingSpec", "FabricSpec",
    "switches", "servers", "attach_collector",
    "CostBreakdown", "TelemetryCostAccountant",
    "DeploymentSpec", "DeploymentTraceSource",
]
