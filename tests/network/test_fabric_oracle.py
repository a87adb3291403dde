"""The in-house :class:`Fabric` against ``networkx.Graph``.

The fabric builders used to return ``networkx.Graph`` objects.  Here the
same builders replay their construction sequence into networkx (the
module's ``Fabric`` constructor is swapped for one returning an
``nx.Graph``), and the two graphs must agree on node order and
attributes, the edge set and its capacities, every node's neighbour
order and the collector's BFS hop counts -- the structure deployments,
parameter draws and hop-priced records are derived from.  The same
networkx graphs also go through ``switches``/``servers``/
``attach_collector``, the deployment and the cost accountant, which must
keep accepting a caller's own ``networkx.Graph``.  Skipped when networkx
is not installed.
"""

from __future__ import annotations

import pytest

from repro.network import topology
from repro.network.cost import TelemetryCostAccountant
from repro.network.monitoring import MonitoringDeployment
from repro.network.topology import (FatTreeSpec, TopologySpec, WanRingSpec,
                                    attach_collector, hop_counts, servers, switches)

nx = pytest.importorskip("networkx")

SPECS = {
    "leaf-spine": TopologySpec(num_spines=3, num_leaves=4, servers_per_leaf=3),
    "fat-tree-k4": FatTreeSpec(k=4),
    "wan-ring": WanRingSpec(num_sites=5, routers_per_site=3, servers_per_site=4,
                            collector_site=2),
}


def build_pair(spec, monkeypatch):
    """``spec`` built as a Fabric and, replaying the same calls, as an nx.Graph."""
    attachment = [spec.gateway()] if isinstance(spec, WanRingSpec) else None
    fabric = spec.build()
    fabric_collector = attach_collector(fabric, attachment)
    with monkeypatch.context() as patch:
        patch.setattr(topology, "Fabric", nx.Graph)
        reference = spec.build()
    assert isinstance(reference, nx.Graph)
    reference_collector = attach_collector(reference, attachment)
    assert fabric_collector == reference_collector
    return fabric, reference, fabric_collector


@pytest.mark.parametrize("name", sorted(SPECS))
class TestFabricMatchesNetworkx:
    def test_nodes_in_the_same_order_with_the_same_attributes(self, name, monkeypatch):
        fabric, reference, _ = build_pair(SPECS[name], monkeypatch)
        assert list(fabric.nodes.items()) == list(reference.nodes.items())
        assert len(fabric) == len(reference)

    def test_same_edge_set_and_capacities(self, name, monkeypatch):
        fabric, reference, _ = build_pair(SPECS[name], monkeypatch)
        ours = {frozenset((u, v)): data for u, v, data in fabric.edges()}
        theirs = {frozenset((u, v)): data for u, v, data in reference.edges(data=True)}
        assert ours == theirs
        assert len(ours) == reference.number_of_edges() == sum(1 for _ in fabric.edges())

    def test_same_neighbour_order_and_degree_per_node(self, name, monkeypatch):
        fabric, reference, _ = build_pair(SPECS[name], monkeypatch)
        for node in reference:
            assert list(fabric.neighbors(node)) == list(reference.neighbors(node))
            assert fabric.degree(node) == reference.degree(node)

    def test_same_hop_counts_from_the_collector(self, name, monkeypatch):
        fabric, reference, collector = build_pair(SPECS[name], monkeypatch)
        expected = nx.single_source_shortest_path_length(reference, collector)
        assert list(hop_counts(fabric, collector).items()) == list(expected.items())
        assert hop_counts(reference, collector) == expected
        assert nx.is_connected(reference)
        assert set(hop_counts(fabric, collector)) == set(fabric)

    def test_networkx_graph_still_accepted_downstream(self, name, monkeypatch):
        fabric, reference, collector = build_pair(SPECS[name], monkeypatch)
        assert switches(reference) == switches(fabric)
        assert servers(reference) == servers(fabric)
        ours = TelemetryCostAccountant(topology=fabric, collector=collector)
        theirs = TelemetryCostAccountant(topology=reference, collector=collector)
        assert ours.cache_token() == theirs.cache_token()
        ours_points = MonitoringDeployment(fabric, trace_duration=3600.0, seed=5).points()
        theirs_points = MonitoringDeployment(reference, trace_duration=3600.0, seed=5).points()
        assert ours_points == theirs_points
