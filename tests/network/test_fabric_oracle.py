"""The in-house :class:`Fabric` against ``networkx.Graph``.

The fabric builders used to return ``networkx.Graph`` objects.  Here each
spec's ``build()`` replays its construction sequence into networkx (the
module's ``Fabric`` constructor is swapped for one returning an
``nx.Graph``), and the two graphs must agree on node order and
attributes, the edge set (which carries no attributes), every node's
neighbour order and the collector's BFS hop counts -- the structure
deployments, parameter draws and hop-priced records are derived from.
The same networkx graphs also go through ``switches``/``servers``/
``attach_collector``, a whole deployment and the cost accountant, which
must keep accepting a caller's own ``networkx.Graph``.  Skipped when
networkx is not installed.
"""

from __future__ import annotations

import pytest

from repro.network import topology
from repro.network.cost import TelemetryCostAccountant
from repro.network.monitoring import DeploymentSpec
from repro.network.topology import (FatTreeSpec, TopologySpec, WanRingSpec,
                                    attach_collector, hop_counts, servers, switches)

nx = pytest.importorskip("networkx")

SPECS = {
    "leaf-spine": TopologySpec(num_spines=3, num_leaves=4, servers_per_leaf=3),
    "fat-tree-k4": FatTreeSpec(k=4),
    "wan-ring": WanRingSpec(num_sites=5, routers_per_site=3, servers_per_site=4),
}


def build_pair(spec, monkeypatch):
    """``spec`` built as a Fabric and, replaying the same calls, as an nx.Graph."""
    fabric = spec.build()
    fabric_collector = attach_collector(fabric)
    with monkeypatch.context() as patch:
        patch.setattr(topology, "Fabric", nx.Graph)
        reference = spec.build()
    assert isinstance(reference, nx.Graph)
    reference_collector = attach_collector(reference)
    assert fabric_collector == reference_collector
    return fabric, reference, fabric_collector


@pytest.mark.parametrize("name", sorted(SPECS))
class TestFabricMatchesNetworkx:
    def test_nodes_in_the_same_order_with_the_same_attributes(self, name, monkeypatch):
        fabric, reference, _ = build_pair(SPECS[name], monkeypatch)
        assert list(fabric.nodes.items()) == list(reference.nodes.items())
        assert len(fabric) == len(reference)

    def test_same_edge_set(self, name, monkeypatch):
        fabric, reference, _ = build_pair(SPECS[name], monkeypatch)
        ours = {frozenset((u, v)) for u, neighbours in fabric.adjacency.items()
                for v in neighbours}
        theirs = {frozenset((u, v)) for u, v in reference.edges()}
        assert ours == theirs
        assert len(ours) == reference.number_of_edges()
        assert all(data == {} for _, _, data in reference.edges(data=True))

    def test_same_neighbour_order_per_node(self, name, monkeypatch):
        fabric, reference, _ = build_pair(SPECS[name], monkeypatch)
        for node in reference:
            assert list(fabric.neighbors(node)) == list(reference.neighbors(node))

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
        spec = DeploymentSpec(topology=SPECS[name], trace_duration=3600.0, seed=5)
        ours_source = spec.open()
        with monkeypatch.context() as patch:
            patch.setattr(topology, "Fabric", nx.Graph)
            theirs_source = spec.open()
        assert isinstance(theirs_source.topology, nx.Graph)
        assert theirs_source.collector == ours_source.collector
        assert theirs_source.pairs() == ours_source.pairs()
        assert (theirs_source.accountant().cache_token()
                == ours_source.accountant().cache_token())
