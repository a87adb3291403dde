"""Network topologies: leaf-spine, folded-Clos (fat-tree) and WAN-ring fabrics.

The paper's cost argument is about fleet scale: every polled sample is
collected on a device, crosses the fabric to a collector, and lands in a
store.  To account for those costs we need an actual fabric.  Each
fabric is a frozen, picklable spec (:class:`TopologySpec`,
:class:`FatTreeSpec`, :class:`WanRingSpec`) whose ``build()`` is the one
recipe for its :class:`Fabric` graph: nodes are switches and servers
tagged with a ``role`` attribute, and :func:`attach_collector` adds the
collector.  :mod:`repro.network.cost` reads only that adjacency and the
roles: it walks the graph (:func:`hop_counts`) to price each sample by
its hops to the collector.  Deployment specs shipped to survey workers
can therefore describe *any* fabric, not just leaf-spine.  WAN rings are
asymmetric: the collector sits at site 0, so hop counts (and therefore
transmission prices) vary with a device's position on the ring.

:class:`Fabric` is a small undirected, insertion-ordered graph holding
node attributes and adjacency, nothing else.  Its node order, per-node
neighbour order and edge set match what ``networkx.Graph`` gives for the
same construction sequence, and the functions here read a graph only
through ``nodes.items()``, ``neighbors()``, ``add_node``/``add_edge`` and
``in``, so a caller's own ``networkx.Graph`` still works wherever a
fabric is accepted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "Fabric",
    "hop_counts",
    "NodeRole",
    "TopologySpec",
    "FatTreeSpec",
    "WanRingSpec",
    "FabricSpec",
    "switches",
    "servers",
    "attach_collector",
]


class Fabric:
    """An undirected graph whose nodes and neighbours keep insertion order.

    ``nodes`` maps each node to its attribute dict and ``adjacency`` maps
    each node to its neighbours (dict keys, in edge order).  Re-adding a
    node updates its attributes in place and keeps its position;
    re-adding an edge changes nothing.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, dict[str, Any]] = {}
        self.adjacency: dict[str, dict[str, None]] = {}

    def add_node(self, node: str, **attrs: Any) -> None:
        """Add ``node`` (or update its attributes)."""
        if node not in self.nodes:
            self.nodes[node] = {}
            self.adjacency[node] = {}
        self.nodes[node].update(attrs)

    def add_edge(self, u: str, v: str) -> None:
        """Add the undirected edge ``u``--``v`` (adding missing endpoints)."""
        self.add_node(u)
        self.add_node(v)
        self.adjacency[u][v] = None
        self.adjacency[v][u] = None

    def neighbors(self, node: str) -> Iterator[str]:
        """Neighbours of ``node`` in the order their edges were added."""
        return iter(self.adjacency[node])

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def hop_counts(graph: Fabric, source: str) -> dict[str, int]:
    """Breadth-first hop count from ``source`` to every node it reaches.

    Needs only ``graph.neighbors``; nodes come out in BFS order, nearest
    first.  The graph is connected exactly when every node is a key.
    """
    hops = {source: 0}
    frontier = [source]
    distance = 0
    while frontier:
        distance += 1
        next_frontier = []
        for node in frontier:
            for neighbour in graph.neighbors(node):
                if neighbour not in hops:
                    hops[neighbour] = distance
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return hops


class NodeRole:
    """Node ``role`` attribute values used across the network package."""

    SPINE = "spine"
    LEAF = "leaf"
    CORE = "core"
    AGGREGATION = "aggregation"
    EDGE = "edge"
    POP = "pop"
    SERVER = "server"
    COLLECTOR = "collector"

    SWITCH_ROLES = (SPINE, LEAF, CORE, AGGREGATION, EDGE, POP)


@dataclass(frozen=True)
class TopologySpec:
    """Parameters of a two-tier leaf-spine fabric.

    Every leaf connects to every spine; servers hang off leaves.

    Attributes
    ----------
    num_spines / num_leaves:
        Switch counts in each tier.
    servers_per_leaf:
        Hosts attached to each leaf (ToR) switch.
    """

    num_spines: int = 4
    num_leaves: int = 8
    servers_per_leaf: int = 16

    def __post_init__(self) -> None:
        if self.num_spines < 1 or self.num_leaves < 1 or self.servers_per_leaf < 0:
            raise ValueError("spine/leaf/server counts must be positive")

    def build(self) -> Fabric:
        """Build this fabric; every node carries a ``role`` (see :class:`NodeRole`)."""
        graph = Fabric()
        spines = [f"spine-{i}" for i in range(self.num_spines)]
        leaves = [f"leaf-{i}" for i in range(self.num_leaves)]
        for name in spines:
            graph.add_node(name, role=NodeRole.SPINE)
        for name in leaves:
            graph.add_node(name, role=NodeRole.LEAF)
        for leaf, spine in itertools.product(leaves, spines):
            graph.add_edge(leaf, spine)
        for leaf_index, leaf in enumerate(leaves):
            for server_index in range(self.servers_per_leaf):
                server = f"server-{leaf_index}-{server_index}"
                graph.add_node(server, role=NodeRole.SERVER)
                graph.add_edge(server, leaf)
        return graph


@dataclass(frozen=True)
class FatTreeSpec:
    """Parameters of a canonical k-ary fat-tree (multi-tier folded Clos) fabric.

    Attributes
    ----------
    k:
        Fat-tree arity (even, >= 2): (k/2)^2 cores, k pods of k/2
        aggregation + k/2 edge switches, k/2 servers per edge switch.
    """

    k: int = 4

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError("k must be an even integer >= 2")

    def build(self) -> Fabric:
        """Build this fabric: the standard folded-Clos construction."""
        half = self.k // 2
        graph = Fabric()

        cores = [f"core-{i}" for i in range(half * half)]
        for name in cores:
            graph.add_node(name, role=NodeRole.CORE)

        for pod in range(self.k):
            aggs = [f"agg-{pod}-{i}" for i in range(half)]
            edges = [f"edge-{pod}-{i}" for i in range(half)]
            for name in aggs:
                graph.add_node(name, role=NodeRole.AGGREGATION)
            for name in edges:
                graph.add_node(name, role=NodeRole.EDGE)
            for agg, edge in itertools.product(aggs, edges):
                graph.add_edge(agg, edge)
            # Each aggregation switch i connects to cores [i*half, (i+1)*half).
            for agg_index, agg in enumerate(aggs):
                for offset in range(half):
                    graph.add_edge(agg, cores[agg_index * half + offset])
            for edge_index, edge in enumerate(edges):
                for server_index in range(half):
                    server = f"server-{pod}-{edge_index}-{server_index}"
                    graph.add_node(server, role=NodeRole.SERVER)
                    graph.add_edge(server, edge)
        return graph


@dataclass(frozen=True)
class WanRingSpec:
    """Parameters of a WAN ring: sites of PoP routers joined in a cycle.

    Unlike the datacenter fabrics, a WAN ring has no central tier to hang
    a collector from: :func:`attach_collector` puts it on the first
    switch, site 0's gateway ``pop-0-0``, so devices at the far
    side of the ring pay up to ``num_sites // 2`` more transit hops per
    sample than local ones.

    Attributes
    ----------
    num_sites:
        Sites on the ring (>= 1; a single-site "ring" is a degenerate
        but valid deployment -- one PoP, zero transit hops).
    routers_per_site:
        PoP routers at each site, connected in a full mesh locally; the
        first router of each site is the site's ring gateway.
    servers_per_site:
        Hosts attached round-robin to the site's routers.
    """

    num_sites: int = 6
    routers_per_site: int = 2
    servers_per_site: int = 4

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        if self.routers_per_site < 1:
            raise ValueError("routers_per_site must be >= 1")
        if self.servers_per_site < 0:
            raise ValueError("servers_per_site must be >= 0")

    def build(self) -> Fabric:
        """Build this fabric: full-mesh PoP sites joined in a cycle.

        Site ``i``'s gateway router ``pop-i-0`` connects to the gateways
        of sites ``i-1`` and ``i+1`` (mod ``num_sites``); a single-site
        spec has no ring links at all.  Servers attach round-robin to
        their site's routers.
        """
        graph = Fabric()
        gateways: list[str] = []
        for site in range(self.num_sites):
            routers = [f"pop-{site}-{i}" for i in range(self.routers_per_site)]
            for name in routers:
                graph.add_node(name, role=NodeRole.POP)
            for left, right in itertools.combinations(routers, 2):
                graph.add_edge(left, right)
            gateways.append(routers[0])
            for server_index in range(self.servers_per_site):
                server = f"server-{site}-{server_index}"
                graph.add_node(server, role=NodeRole.SERVER)
                graph.add_edge(server, routers[server_index % self.routers_per_site])
        if self.num_sites > 1:
            for site, gateway in enumerate(gateways):
                graph.add_edge(gateway, gateways[(site + 1) % self.num_sites])
        return graph


#: Any frozen fabric spec with a ``build()`` method.
FabricSpec = TopologySpec | FatTreeSpec | WanRingSpec


def switches(graph: Fabric) -> list[str]:
    """All switch nodes (any non-server, non-collector role)."""
    return [node for node, data in graph.nodes.items()
            if data.get("role") in NodeRole.SWITCH_ROLES]


def servers(graph: Fabric) -> list[str]:
    """All server nodes."""
    return [node for node, data in graph.nodes.items()
            if data.get("role") == NodeRole.SERVER]


def attach_collector(graph: Fabric) -> str:
    """Attach the telemetry collector node ``collector-0`` to the fabric.

    The collector attaches to every spine/core switch (a centrally
    reachable placement); a fabric without that tier, like a WAN ring,
    gets it on its first switch.  Returns the collector node name.
    """
    name = "collector-0"
    if name in graph:
        raise ValueError(f"node {name!r} already exists")
    attachment_points = [node for node, data in graph.nodes.items()
                         if data.get("role") in (NodeRole.SPINE, NodeRole.CORE)]
    if not attachment_points:
        attachment_points = switches(graph)[:1]
    if not attachment_points:
        raise ValueError("no attachment points available for the collector")
    graph.add_node(name, role=NodeRole.COLLECTOR)
    for node in attachment_points:
        graph.add_edge(name, node)
    return name
