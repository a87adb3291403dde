"""Network topologies: leaf-spine, folded-Clos (fat-tree) and WAN-ring fabrics.

The paper's cost argument is about fleet scale: every polled sample is
collected on a device, crosses the fabric to a collector, and lands in a
store.  To account for those costs we need an actual fabric.  The builders
here produce :class:`Fabric` graphs whose nodes are switches, servers and
collectors (tagged with a ``role`` attribute) and whose edges carry link
capacities; :mod:`repro.network.cost` walks them (:func:`hop_counts`) to
price telemetry movement.

:class:`Fabric` is a small undirected, insertion-ordered graph holding
node attributes and adjacency, nothing else.  Its node order, per-node neighbour order and edge set match what
``networkx.Graph`` gives for the same construction sequence, and the
functions here read a graph only through ``nodes.items()``,
``neighbors()``, ``add_node``/``add_edge`` and ``in``, so a caller's own
``networkx.Graph`` still works wherever a fabric is accepted.

Each fabric also has a frozen, picklable spec (:class:`TopologySpec`,
:class:`FatTreeSpec`, :class:`WanRingSpec`) with a ``build()`` method, so
deployment specs shipped to survey workers can describe *any* fabric, not
just leaf-spine.  WAN rings are deliberately asymmetric: the collector
sits at one site, so hop counts (and therefore transmission prices) vary
per device -- the placement-sensitivity knob the scenario matrix turns.
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
    "build_leaf_spine",
    "build_fat_tree",
    "build_wan_ring",
    "switches",
    "servers",
    "attach_collector",
]


class Fabric:
    """An undirected graph whose nodes and neighbours keep insertion order.

    ``nodes`` maps each node to its attribute dict and ``adjacency`` maps
    each node to ``{neighbour: edge attribute dict}``; both directions of
    an edge share one attribute dict.  Re-adding a node or an edge
    updates its attributes in place and keeps its position.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, dict[str, Any]] = {}
        self.adjacency: dict[str, dict[str, dict[str, Any]]] = {}

    def add_node(self, node: str, **attrs: Any) -> None:
        """Add ``node`` (or update its attributes)."""
        if node not in self.nodes:
            self.nodes[node] = {}
            self.adjacency[node] = {}
        self.nodes[node].update(attrs)

    def add_edge(self, u: str, v: str, **attrs: Any) -> None:
        """Add the undirected edge ``u``--``v`` (adding missing endpoints)."""
        self.add_node(u)
        self.add_node(v)
        data = self.adjacency[u].setdefault(v, {})
        data.update(attrs)
        self.adjacency[v][u] = data

    def neighbors(self, node: str) -> Iterator[str]:
        """Neighbours of ``node`` in the order their edges were added."""
        return iter(self.adjacency[node])

    def degree(self, node: str) -> int:
        """Number of edges at ``node`` (a self-loop counts twice)."""
        return len(self.adjacency[node]) + (node in self.adjacency[node])

    def has_edge(self, u: str, v: str) -> bool:
        """Whether ``u`` and ``v`` are joined by an edge."""
        return u in self.adjacency and v in self.adjacency[u]

    def edges(self) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """Every edge once, as ``(u, v, attrs)``, in node-then-neighbour order."""
        seen: set[str] = set()
        for node, neighbours in self.adjacency.items():
            for neighbour, data in neighbours.items():
                if neighbour not in seen:
                    yield node, neighbour, data
            seen.add(node)

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
    """Parameters of a leaf-spine fabric.

    Attributes
    ----------
    num_spines / num_leaves:
        Switch counts in each tier.
    servers_per_leaf:
        Hosts attached to each leaf (ToR) switch.
    leaf_uplink_gbps / server_link_gbps:
        Link capacities recorded on the edges (used by the cost model to
        express telemetry bandwidth as a fraction of capacity).
    """

    num_spines: int = 4
    num_leaves: int = 8
    servers_per_leaf: int = 16
    leaf_uplink_gbps: float = 100.0
    server_link_gbps: float = 25.0

    def __post_init__(self) -> None:
        if self.num_spines < 1 or self.num_leaves < 1 or self.servers_per_leaf < 0:
            raise ValueError("spine/leaf/server counts must be positive")
        if self.leaf_uplink_gbps <= 0 or self.server_link_gbps <= 0:
            raise ValueError("link capacities must be positive")

    def build(self) -> Fabric:
        """Build this fabric (see :func:`build_leaf_spine`)."""
        return build_leaf_spine(self)


@dataclass(frozen=True)
class FatTreeSpec:
    """Parameters of a k-ary fat-tree (multi-tier folded Clos) fabric.

    Attributes
    ----------
    k:
        Fat-tree arity (even, >= 2): (k/2)^2 cores, k pods of k/2
        aggregation + k/2 edge switches, k/2 servers per edge switch.
    server_link_gbps / fabric_link_gbps:
        Link capacities recorded on the edges.
    """

    k: int = 4
    server_link_gbps: float = 25.0
    fabric_link_gbps: float = 100.0

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError("k must be an even integer >= 2")
        if self.server_link_gbps <= 0 or self.fabric_link_gbps <= 0:
            raise ValueError("link capacities must be positive")

    def build(self) -> Fabric:
        """Build this fabric (see :func:`build_fat_tree`)."""
        return build_fat_tree(self.k, server_link_gbps=self.server_link_gbps,
                              fabric_link_gbps=self.fabric_link_gbps)


@dataclass(frozen=True)
class WanRingSpec:
    """Parameters of a WAN ring: sites of PoP routers joined in a cycle.

    Unlike the datacenter fabrics, a WAN ring has no central tier to hang
    a collector from: the collector lives at *one* site (``collector_site``),
    so devices at the far side of the ring pay up to ``num_sites // 2``
    more transit hops per sample than local ones.  That asymmetry is the
    point -- it is what makes hop-priced transmission cost sensitive to
    placement in the scenario matrix.

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
    collector_site:
        Index of the site the collector attaches to.
    ring_link_gbps / site_link_gbps / server_link_gbps:
        Capacities of inter-site, intra-site and server links.
    """

    num_sites: int = 6
    routers_per_site: int = 2
    servers_per_site: int = 4
    collector_site: int = 0
    ring_link_gbps: float = 40.0
    site_link_gbps: float = 100.0
    server_link_gbps: float = 10.0

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        if self.routers_per_site < 1:
            raise ValueError("routers_per_site must be >= 1")
        if self.servers_per_site < 0:
            raise ValueError("servers_per_site must be >= 0")
        if not 0 <= self.collector_site < self.num_sites:
            raise ValueError(f"collector_site {self.collector_site} outside "
                             f"[0, {self.num_sites})")
        if min(self.ring_link_gbps, self.site_link_gbps,
               self.server_link_gbps) <= 0:
            raise ValueError("link capacities must be positive")

    def build(self) -> Fabric:
        """Build this fabric (see :func:`build_wan_ring`)."""
        return build_wan_ring(self)

    def gateway(self) -> str:
        """Name of the collector site's ring gateway router."""
        return f"pop-{self.collector_site}-0"


#: Any frozen fabric spec with a ``build()`` method.
FabricSpec = TopologySpec | FatTreeSpec | WanRingSpec


def build_leaf_spine(spec: TopologySpec | None = None) -> Fabric:
    """Build a two-tier leaf-spine fabric.

    Every leaf connects to every spine; servers hang off leaves.  Node
    attributes: ``role`` (see :class:`NodeRole`); edge attributes:
    ``capacity_gbps``.
    """
    spec = spec or TopologySpec()
    graph = Fabric()
    spines = [f"spine-{i}" for i in range(spec.num_spines)]
    leaves = [f"leaf-{i}" for i in range(spec.num_leaves)]
    for name in spines:
        graph.add_node(name, role=NodeRole.SPINE)
    for name in leaves:
        graph.add_node(name, role=NodeRole.LEAF)
    for leaf, spine in itertools.product(leaves, spines):
        graph.add_edge(leaf, spine, capacity_gbps=spec.leaf_uplink_gbps)
    for leaf_index, leaf in enumerate(leaves):
        for server_index in range(spec.servers_per_leaf):
            server = f"server-{leaf_index}-{server_index}"
            graph.add_node(server, role=NodeRole.SERVER)
            graph.add_edge(server, leaf, capacity_gbps=spec.server_link_gbps)
    return graph


def build_fat_tree(k: int = 4, server_link_gbps: float = 25.0,
                   fabric_link_gbps: float = 100.0) -> Fabric:
    """Build a canonical k-ary fat-tree (k even): (k/2)^2 cores, k pods.

    Each pod has k/2 aggregation and k/2 edge switches; each edge switch
    hosts k/2 servers.  This is the standard folded-Clos construction used
    throughout the datacenter literature.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be an even integer >= 2")
    half = k // 2
    graph = Fabric()

    cores = [f"core-{i}" for i in range(half * half)]
    for name in cores:
        graph.add_node(name, role=NodeRole.CORE)

    for pod in range(k):
        aggs = [f"agg-{pod}-{i}" for i in range(half)]
        edges = [f"edge-{pod}-{i}" for i in range(half)]
        for name in aggs:
            graph.add_node(name, role=NodeRole.AGGREGATION, pod=pod)
        for name in edges:
            graph.add_node(name, role=NodeRole.EDGE, pod=pod)
        for agg, edge in itertools.product(aggs, edges):
            graph.add_edge(agg, edge, capacity_gbps=fabric_link_gbps)
        # Each aggregation switch i connects to cores [i*half, (i+1)*half).
        for agg_index, agg in enumerate(aggs):
            for offset in range(half):
                core = cores[agg_index * half + offset]
                graph.add_edge(agg, core, capacity_gbps=fabric_link_gbps)
        for edge_index, edge in enumerate(edges):
            for server_index in range(half):
                server = f"server-{pod}-{edge_index}-{server_index}"
                graph.add_node(server, role=NodeRole.SERVER, pod=pod)
                graph.add_edge(server, edge, capacity_gbps=server_link_gbps)
    return graph


def build_wan_ring(spec: WanRingSpec | None = None) -> Fabric:
    """Build a WAN ring: full-mesh PoP sites joined in a cycle.

    Site ``i``'s gateway router ``pop-i-0`` connects to the gateways of
    sites ``i-1`` and ``i+1`` (mod ``num_sites``); a single-site spec has
    no ring links at all.  Servers attach round-robin to their site's
    routers.  Node attributes: ``role`` and ``site``; edge attributes:
    ``capacity_gbps``.
    """
    spec = spec or WanRingSpec()
    graph = Fabric()
    gateways: list[str] = []
    for site in range(spec.num_sites):
        routers = [f"pop-{site}-{i}" for i in range(spec.routers_per_site)]
        for name in routers:
            graph.add_node(name, role=NodeRole.POP, site=site)
        for left, right in itertools.combinations(routers, 2):
            graph.add_edge(left, right, capacity_gbps=spec.site_link_gbps)
        gateways.append(routers[0])
        for server_index in range(spec.servers_per_site):
            server = f"server-{site}-{server_index}"
            router = routers[server_index % spec.routers_per_site]
            graph.add_node(server, role=NodeRole.SERVER, site=site)
            graph.add_edge(server, router, capacity_gbps=spec.server_link_gbps)
    if spec.num_sites > 1:
        for site, gateway in enumerate(gateways):
            neighbour = gateways[(site + 1) % spec.num_sites]
            graph.add_edge(gateway, neighbour, capacity_gbps=spec.ring_link_gbps)
    return graph


def switches(graph: Fabric) -> list[str]:
    """All switch nodes (any non-server, non-collector role)."""
    return [node for node, data in graph.nodes.items()
            if data.get("role") in NodeRole.SWITCH_ROLES]


def servers(graph: Fabric) -> list[str]:
    """All server nodes."""
    return [node for node, data in graph.nodes.items()
            if data.get("role") == NodeRole.SERVER]


def attach_collector(graph: Fabric, attachment_points: list[str] | None = None,
                     name: str = "collector-0",
                     link_gbps: float = 100.0) -> str:
    """Attach a telemetry collector node to the fabric.

    By default the collector attaches to every spine/core switch (a
    centrally reachable placement); pass explicit ``attachment_points`` for
    other placements.  Returns the collector node name.
    """
    if name in graph:
        raise ValueError(f"node {name!r} already exists")
    if attachment_points is None:
        attachment_points = [node for node, data in graph.nodes.items()
                             if data.get("role") in (NodeRole.SPINE, NodeRole.CORE)]
        if not attachment_points:
            attachment_points = switches(graph)[:1]
    if not attachment_points:
        raise ValueError("no attachment points available for the collector")
    missing = [node for node in attachment_points if node not in graph]
    if missing:
        raise ValueError(f"attachment points not in graph: {missing}")
    graph.add_node(name, role=NodeRole.COLLECTOR)
    for node in attachment_points:
        graph.add_edge(name, node, capacity_gbps=link_gbps)
    return name
