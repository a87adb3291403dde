"""Unit tests for the fabric specs' ``build()`` recipes and the collector."""

from __future__ import annotations

import pickle

import pytest

from repro.network.topology import (Fabric, FatTreeSpec, NodeRole, TopologySpec,
                                    WanRingSpec, attach_collector, hop_counts, servers,
                                    switches)


def is_connected(graph) -> bool:
    """A graph is connected exactly when a BFS from any node reaches every node."""
    if len(graph) == 0:
        raise ValueError("connectivity is undefined for the null graph")
    return set(hop_counts(graph, next(iter(graph)))) == set(graph)


def roles(graph) -> dict[str, str]:
    """``role`` attribute per node, for the nodes that have one."""
    return {node: data["role"] for node, data in graph.nodes.items() if "role" in data}


class TestLeafSpine:
    def test_node_counts(self):
        graph = TopologySpec(num_spines=4, num_leaves=8, servers_per_leaf=16).build()
        assert len(switches(graph)) == 12
        assert len(servers(graph)) == 8 * 16

    def test_full_bipartite_fabric(self):
        spec = TopologySpec(num_spines=3, num_leaves=5, servers_per_leaf=0)
        graph = spec.build()
        for leaf in (n for n, d in graph.nodes.items() if d["role"] == NodeRole.LEAF):
            spine_neighbors = [n for n in graph.neighbors(leaf)
                               if graph.nodes[n]["role"] == NodeRole.SPINE]
            assert len(spine_neighbors) == 3

    def test_connected(self):
        graph = TopologySpec().build()
        assert is_connected(graph)

    def test_servers_attach_to_one_leaf(self):
        graph = TopologySpec(num_spines=2, num_leaves=2, servers_per_leaf=3).build()
        for server in servers(graph):
            assert len(graph.adjacency[server]) == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(num_spines=0)
        with pytest.raises(ValueError):
            TopologySpec(num_leaves=0)
        with pytest.raises(ValueError):
            TopologySpec(servers_per_leaf=-1)


class TestFatTree:
    def test_k4_counts(self):
        graph = FatTreeSpec(k=4).build()
        by_node = roles(graph)
        assert sum(1 for role in by_node.values() if role == NodeRole.CORE) == 4
        assert sum(1 for role in by_node.values() if role == NodeRole.AGGREGATION) == 8
        assert sum(1 for role in by_node.values() if role == NodeRole.EDGE) == 8
        assert sum(1 for role in by_node.values() if role == NodeRole.SERVER) == 16

    def test_k4_is_connected(self):
        assert is_connected(FatTreeSpec(k=4).build())

    def test_server_count_scales_with_k(self):
        assert len(servers(FatTreeSpec(k=6).build())) == 6 ** 3 // 4

    def test_rejects_odd_k(self):
        for k in (3, 5, 7):
            with pytest.raises(ValueError, match="even"):
                FatTreeSpec(k=k)

    def test_core_connectivity(self):
        graph = FatTreeSpec(k=4).build()
        # Each aggregation switch connects to k/2 cores.
        aggs = [n for n, d in graph.nodes.items() if d["role"] == NodeRole.AGGREGATION]
        for agg in aggs:
            cores = [n for n in graph.neighbors(agg) if graph.nodes[n]["role"] == NodeRole.CORE]
            assert len(cores) == 2


class TestCollector:
    def test_attach_to_spines_by_default(self):
        graph = TopologySpec(num_spines=3, num_leaves=4, servers_per_leaf=1).build()
        collector = attach_collector(graph)
        assert graph.nodes[collector]["role"] == NodeRole.COLLECTOR
        assert len(graph.adjacency[collector]) == 3

    def test_attach_to_every_core_of_a_fat_tree(self):
        graph = FatTreeSpec(k=4).build()
        collector = attach_collector(graph)
        cores = [n for n, d in graph.nodes.items() if d["role"] == NodeRole.CORE]
        assert list(graph.neighbors(collector)) == cores
        assert len(cores) == 4

    def test_attach_twice_rejected(self):
        graph = TopologySpec().build()
        assert attach_collector(graph) == "collector-0"
        with pytest.raises(ValueError):
            attach_collector(graph)

    def test_attach_defaults_to_first_switch_without_a_core_tier(self):
        """A WAN ring has no spine/core tier: the default is its first switch."""
        graph = WanRingSpec(num_sites=3, routers_per_site=2, servers_per_site=1).build()
        collector = attach_collector(graph)
        assert list(graph.neighbors(collector)) == ["pop-0-0"]

    def test_attach_without_switches_rejected(self):
        graph = Fabric()
        graph.add_node("server-0", role=NodeRole.SERVER)
        with pytest.raises(ValueError, match="no attachment points"):
            attach_collector(graph)
        assert list(graph) == ["server-0"]

    def test_collector_reaches_every_device(self):
        graph = TopologySpec().build()
        collector = attach_collector(graph)
        lengths = hop_counts(graph, collector)
        assert set(lengths) == set(graph.nodes)


@pytest.mark.parametrize("spec", [
    TopologySpec(num_spines=2, num_leaves=3, servers_per_leaf=2),
    FatTreeSpec(k=4),
    WanRingSpec(num_sites=4, routers_per_site=2, servers_per_site=3),
], ids=["leaf-spine", "fat-tree", "wan-ring"])
def test_spec_builds_the_same_fabric_after_pickling(spec):
    """Workers receive the pickled spec; its build() must match the caller's."""
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    graph, rebuilt = spec.build(), clone.build()
    assert list(rebuilt.nodes.items()) == list(graph.nodes.items())
    assert [list(rebuilt.neighbors(node)) for node in rebuilt] == \
        [list(graph.neighbors(node)) for node in graph]


class TestFatTreeSpec:
    def test_smallest_legal_arity(self):
        graph = FatTreeSpec(k=2).build()
        assert is_connected(graph)
        assert len(servers(graph)) == 2  # k pods x k/2 edges x k/2 servers

    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"k": 3}, {"k": -4},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            FatTreeSpec(**kwargs)


class TestWanRing:
    def test_sites_form_a_ring_of_gateways(self):
        spec = WanRingSpec(num_sites=4, routers_per_site=2, servers_per_site=1)
        graph = spec.build()
        gateways = [f"pop-{site}-0" for site in range(4)]
        for site, gateway in enumerate(gateways):
            assert gateways[(site + 1) % 4] in graph.adjacency[gateway]
        assert is_connected(graph)

    def test_single_site_ring_is_degenerate_but_valid(self):
        """A one-site 'ring' must not self-loop: one PoP, zero transit hops."""
        graph = WanRingSpec(num_sites=1, routers_per_site=1, servers_per_site=2).build()
        assert not any(node in graph.adjacency[node] for node in graph)
        assert is_connected(graph)
        assert len(servers(graph)) == 2

    def test_single_device_deployment(self):
        """The smallest fabric of all: one router, nothing else."""
        graph = WanRingSpec(num_sites=1, routers_per_site=1, servers_per_site=0).build()
        assert list(graph) == ["pop-0-0"]
        assert graph.adjacency == {"pop-0-0": {}}

    def test_hop_counts_are_asymmetric_from_the_collector_site(self):
        """The point of the WAN column: distance to the collector depends on
        ring position, unlike the leaf-spine fabrics."""
        graph = WanRingSpec(num_sites=4, routers_per_site=1, servers_per_site=1).build()
        collector = attach_collector(graph)
        lengths = hop_counts(graph, collector)
        pop_hops = [lengths[f"pop-{site}-0"] for site in range(4)]
        server_hops = [lengths[f"server-{site}-0"] for site in range(4)]
        assert pop_hops == [1, 2, 3, 2]
        assert server_hops == [2, 3, 4, 3]
        assert len(set(pop_hops)) > 1

    def test_servers_round_robin_across_site_routers(self):
        graph = WanRingSpec(num_sites=1, routers_per_site=2, servers_per_site=4).build()
        for index in range(4):
            assert f"pop-0-{index % 2}" in graph.adjacency[f"server-0-{index}"]

    @pytest.mark.parametrize("kwargs", [
        {"num_sites": 0}, {"routers_per_site": 0}, {"servers_per_site": -1},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            WanRingSpec(**kwargs)


class TestFabric:
    def test_nodes_and_neighbours_keep_insertion_order(self):
        graph = Fabric()
        graph.add_edge("b", "a")
        graph.add_node("c", role="x")
        graph.add_edge("b", "c")
        assert list(graph) == ["b", "a", "c"]
        assert list(graph.neighbors("b")) == ["a", "c"]
        assert list(graph.neighbors("a")) == ["b"]
        assert len(graph) == 3 and "c" in graph and "z" not in graph

    def test_readding_keeps_positions(self):
        graph = Fabric()
        graph.add_node("a", role="leaf")
        graph.add_edge("a", "b")
        graph.add_edge("a", "c")
        graph.add_node("a", role="spine")
        graph.add_edge("b", "a")
        assert graph.nodes["a"] == {"role": "spine"}
        assert list(graph) == ["a", "b", "c"]
        assert list(graph.neighbors("a")) == ["b", "c"] and list(graph.neighbors("b")) == ["a"]

    def test_self_loop_is_its_own_neighbour(self):
        graph = Fabric()
        graph.add_edge("a", "b")
        graph.add_edge("a", "a")
        graph.add_edge("b", "c")
        assert list(graph.neighbors("a")) == ["b", "a"]
        assert "c" not in graph.adjacency["a"] and "z" not in graph

    def test_hop_counts_stop_at_the_component(self):
        graph = Fabric()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("x", "y")
        assert hop_counts(graph, "a") == {"a": 0, "b": 1, "c": 2}
        assert not is_connected(graph)
        graph.add_edge("c", "x")
        assert is_connected(graph)
        assert hop_counts(graph, "a") == {"a": 0, "b": 1, "c": 2, "x": 3, "y": 4}
