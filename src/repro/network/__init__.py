"""Network substrate: topologies, monitoring deployment and cost model."""

from .cost import CostBreakdown, CostModel, TelemetryCostAccountant
from .monitoring import DeploymentSpec, DeploymentTraceSource, MonitoringDeployment
from .topology import (Fabric, FabricSpec, FatTreeSpec, NodeRole, TopologySpec,
                       WanRingSpec, attach_collector, build_fat_tree, build_leaf_spine,
                       build_wan_ring, hop_counts, servers, switches)

__all__ = [
    "Fabric", "hop_counts",
    "NodeRole", "TopologySpec", "FatTreeSpec", "WanRingSpec", "FabricSpec",
    "build_leaf_spine", "build_fat_tree", "build_wan_ring",
    "switches", "servers", "attach_collector",
    "CostModel", "CostBreakdown", "TelemetryCostAccountant",
    "MonitoringDeployment",
    "DeploymentSpec", "DeploymentTraceSource",
]
