"""Unit tests for the datacenter topology builders."""

from __future__ import annotations

import pytest

from repro.network.topology import (Fabric, FatTreeSpec, NodeRole, TopologySpec,
                                    WanRingSpec, attach_collector, build_fat_tree,
                                    build_leaf_spine, build_wan_ring, hop_counts, servers,
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
        graph = build_leaf_spine(TopologySpec(num_spines=4, num_leaves=8, servers_per_leaf=16))
        assert len(switches(graph)) == 12
        assert len(servers(graph)) == 8 * 16

    def test_full_bipartite_fabric(self):
        spec = TopologySpec(num_spines=3, num_leaves=5, servers_per_leaf=0)
        graph = build_leaf_spine(spec)
        for leaf in (n for n, d in graph.nodes.items() if d["role"] == NodeRole.LEAF):
            spine_neighbors = [n for n in graph.neighbors(leaf)
                               if graph.nodes[n]["role"] == NodeRole.SPINE]
            assert len(spine_neighbors) == 3

    def test_connected(self):
        graph = build_leaf_spine()
        assert is_connected(graph)

    def test_edges_have_capacity(self):
        graph = build_leaf_spine()
        for _, _, data in graph.edges():
            assert data["capacity_gbps"] > 0

    def test_servers_attach_to_one_leaf(self):
        graph = build_leaf_spine(TopologySpec(num_spines=2, num_leaves=2, servers_per_leaf=3))
        for server in servers(graph):
            assert graph.degree(server) == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(num_spines=0)
        with pytest.raises(ValueError):
            TopologySpec(leaf_uplink_gbps=-1.0)


class TestFatTree:
    def test_k4_counts(self):
        graph = build_fat_tree(4)
        by_node = roles(graph)
        assert sum(1 for role in by_node.values() if role == NodeRole.CORE) == 4
        assert sum(1 for role in by_node.values() if role == NodeRole.AGGREGATION) == 8
        assert sum(1 for role in by_node.values() if role == NodeRole.EDGE) == 8
        assert sum(1 for role in by_node.values() if role == NodeRole.SERVER) == 16

    def test_k4_is_connected(self):
        assert is_connected(build_fat_tree(4))

    def test_server_count_scales_with_k(self):
        assert len(servers(build_fat_tree(6))) == 6 ** 3 // 4

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            build_fat_tree(3)

    def test_core_connectivity(self):
        graph = build_fat_tree(4)
        # Each aggregation switch connects to k/2 cores.
        aggs = [n for n, d in graph.nodes.items() if d["role"] == NodeRole.AGGREGATION]
        for agg in aggs:
            cores = [n for n in graph.neighbors(agg) if graph.nodes[n]["role"] == NodeRole.CORE]
            assert len(cores) == 2


class TestCollector:
    def test_attach_to_spines_by_default(self):
        graph = build_leaf_spine(TopologySpec(num_spines=3, num_leaves=4, servers_per_leaf=1))
        collector = attach_collector(graph)
        assert graph.nodes[collector]["role"] == NodeRole.COLLECTOR
        assert graph.degree(collector) == 3

    def test_attach_explicit_points(self):
        graph = build_leaf_spine()
        collector = attach_collector(graph, attachment_points=["leaf-0"])
        assert list(graph.neighbors(collector)) == ["leaf-0"]

    def test_attach_duplicate_name_rejected(self):
        graph = build_leaf_spine()
        attach_collector(graph, name="c0")
        with pytest.raises(ValueError):
            attach_collector(graph, name="c0")

    def test_attach_unknown_point_rejected(self):
        graph = build_leaf_spine()
        with pytest.raises(ValueError):
            attach_collector(graph, attachment_points=["nope"])

    def test_collector_reaches_every_device(self):
        graph = build_leaf_spine()
        collector = attach_collector(graph)
        lengths = hop_counts(graph, collector)
        assert set(lengths) == set(graph.nodes)


class TestFatTreeSpec:
    def test_build_matches_builder(self):
        spec = FatTreeSpec(k=4, server_link_gbps=10.0, fabric_link_gbps=40.0)
        graph = spec.build()
        reference = build_fat_tree(4, server_link_gbps=10.0, fabric_link_gbps=40.0)
        assert list(graph) == list(reference)
        assert list(graph.edges()) == list(reference.edges())

    def test_smallest_legal_arity(self):
        graph = FatTreeSpec(k=2).build()
        assert is_connected(graph)
        assert len(servers(graph)) == 2  # k pods x k/2 edges x k/2 servers

    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"k": 3}, {"k": -4},
        {"server_link_gbps": 0.0}, {"fabric_link_gbps": -1.0},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            FatTreeSpec(**kwargs)


class TestWanRing:
    def test_sites_form_a_ring_of_gateways(self):
        spec = WanRingSpec(num_sites=4, routers_per_site=2, servers_per_site=1)
        graph = build_wan_ring(spec)
        gateways = [f"pop-{site}-0" for site in range(4)]
        for site, gateway in enumerate(gateways):
            assert graph.has_edge(gateway, gateways[(site + 1) % 4])
        assert is_connected(graph)

    def test_single_site_ring_is_degenerate_but_valid(self):
        """A one-site 'ring' must not self-loop: one PoP, zero transit hops."""
        spec = WanRingSpec(num_sites=1, routers_per_site=1, servers_per_site=2)
        graph = build_wan_ring(spec)
        assert not any(u == v for u, v, _ in graph.edges())
        assert is_connected(graph)
        assert len(servers(graph)) == 2
        assert spec.gateway() == "pop-0-0"

    def test_single_device_deployment(self):
        """The smallest fabric of all: one router, nothing else."""
        graph = build_wan_ring(WanRingSpec(num_sites=1, routers_per_site=1,
                                           servers_per_site=0))
        assert list(graph) == ["pop-0-0"]
        assert list(graph.edges()) == []

    def test_hop_counts_are_asymmetric_from_the_collector_site(self):
        """The point of the WAN column: distance to the collector depends on
        ring position, unlike the leaf-spine fabrics."""
        spec = WanRingSpec(num_sites=4, routers_per_site=1, servers_per_site=1)
        graph = build_wan_ring(spec)
        collector = attach_collector(graph, [spec.gateway()])
        lengths = hop_counts(graph, collector)
        pop_hops = [lengths[f"pop-{site}-0"] for site in range(4)]
        server_hops = [lengths[f"server-{site}-0"] for site in range(4)]
        assert pop_hops == [1, 2, 3, 2]
        assert server_hops == [2, 3, 4, 3]
        assert len(set(pop_hops)) > 1

    def test_servers_round_robin_across_site_routers(self):
        graph = build_wan_ring(WanRingSpec(num_sites=1, routers_per_site=2,
                                           servers_per_site=4))
        for index in range(4):
            assert graph.has_edge(f"server-0-{index}", f"pop-0-{index % 2}")

    @pytest.mark.parametrize("kwargs", [
        {"num_sites": 0}, {"routers_per_site": 0}, {"servers_per_site": -1},
        {"collector_site": 6}, {"collector_site": -1}, {"ring_link_gbps": 0.0},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            WanRingSpec(**kwargs)


class TestFabric:
    def test_nodes_and_neighbours_keep_insertion_order(self):
        graph = Fabric()
        graph.add_edge("b", "a", capacity_gbps=1.0)
        graph.add_node("c", role="x")
        graph.add_edge("b", "c")
        assert list(graph) == ["b", "a", "c"]
        assert list(graph.neighbors("b")) == ["a", "c"]
        assert list(graph.neighbors("a")) == ["b"]
        assert len(graph) == 3 and "c" in graph and "z" not in graph

    def test_readding_updates_attributes_in_place(self):
        graph = Fabric()
        graph.add_node("a", role="leaf")
        graph.add_edge("a", "b", capacity_gbps=1.0)
        graph.add_node("a", pod=2)
        graph.add_edge("b", "a", capacity_gbps=5.0)
        assert graph.nodes["a"] == {"role": "leaf", "pod": 2}
        assert list(graph.edges()) == [("a", "b", {"capacity_gbps": 5.0})]
        assert graph.adjacency["a"]["b"] is graph.adjacency["b"]["a"]
        assert graph.degree("a") == 1 and graph.has_edge("b", "a")

    def test_edges_reported_once_self_loop_counts_twice_in_degree(self):
        graph = Fabric()
        graph.add_edge("a", "b")
        graph.add_edge("a", "a")
        graph.add_edge("b", "c")
        assert [(u, v) for u, v, _ in graph.edges()] == [("a", "b"), ("a", "a"), ("b", "c")]
        assert graph.degree("a") == 3
        assert not graph.has_edge("a", "c") and not graph.has_edge("z", "a")

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
