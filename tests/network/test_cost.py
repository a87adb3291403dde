"""Unit tests for the monitoring cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.cost import TelemetryCostAccountant
from repro.network.monitoring import DeploymentSpec
from repro.network.topology import NodeRole, TopologySpec, attach_collector


def total(cost) -> float:
    """Unit-weighted sum of a priced cost's components."""
    return cost.collection_cpu_us + cost.transmission + cost.storage_bytes + cost.analysis


class TestAccountant:
    def make_accountant(self):
        graph = TopologySpec(num_spines=2, num_leaves=2, servers_per_leaf=2).build()
        collector = attach_collector(graph)
        return TelemetryCostAccountant(topology=graph, collector=collector), graph, collector

    def test_hop_counts(self):
        accountant, graph, collector = self.make_accountant()
        assert accountant.hops(collector) == 0
        assert accountant.hops("spine-0") == 1
        assert accountant.hops("leaf-0") == 2
        assert accountant.hops("server-0-0") == 3

    def test_unknown_device_uses_default_hops(self):
        accountant, _, _ = self.make_accountant()
        assert accountant.hops("not-a-node") == 3

    def test_price_scales_linearly_with_samples(self):
        accountant, _, _ = self.make_accountant()
        one = accountant.price_samples("leaf-0", 100)
        two = accountant.price_samples("leaf-0", 200)
        assert total(two) == pytest.approx(2 * total(one))

    def test_price_components(self):
        """64 B and 50 us per sample, 1 per byte-hop and per byte stored,
        10 per sample analysed; a topology-less device is three hops away."""
        cost = TelemetryCostAccountant().price_samples("dev", 5)
        assert cost.collection_cpu_us == pytest.approx(250.0)
        assert cost.storage_bytes == pytest.approx(320.0)
        assert cost.transmission == pytest.approx(960.0)
        assert cost.analysis == pytest.approx(50.0)

    def test_negative_samples_rejected(self):
        accountant, _, _ = self.make_accountant()
        with pytest.raises(ValueError):
            accountant.price_samples("leaf-0", -1)

    def test_collector_must_exist(self):
        graph = TopologySpec().build()
        with pytest.raises(ValueError):
            TelemetryCostAccountant(topology=graph, collector="missing")

    def test_farther_devices_cost_more_to_ship(self):
        accountant, _, _ = self.make_accountant()
        near = accountant.price_samples("spine-0", 100)
        far = accountant.price_samples("server-0-0", 100)
        assert far.transmission > near.transmission
        assert far.storage_bytes == near.storage_bytes


class TestVectorisedPricing:
    def make_accountant(self):
        graph = TopologySpec(num_spines=2, num_leaves=2, servers_per_leaf=2).build()
        collector = attach_collector(graph)
        return TelemetryCostAccountant(topology=graph, collector=collector)

    def test_block_matches_per_device_pricing(self):
        accountant = self.make_accountant()
        devices = ["spine-0", "leaf-1", "server-0-0", "not-a-node"]
        counts = np.array([10, 20, 30, 40])
        priced = accountant.price_sample_block(devices, counts)
        for index, (device, count) in enumerate(zip(devices, counts)):
            scalar = accountant.price_samples(device, int(count))
            assert priced["hops"][index] == accountant.hops(device)
            assert priced["collection_cpu_us"][index] == pytest.approx(scalar.collection_cpu_us)
            assert priced["transmission"][index] == pytest.approx(scalar.transmission)
            assert priced["storage_bytes"][index] == pytest.approx(scalar.storage_bytes)
            assert priced["analysis"][index] == pytest.approx(scalar.analysis)

    def test_rejects_bad_shapes_and_negatives(self):
        accountant = self.make_accountant()
        with pytest.raises(ValueError):
            accountant.price_sample_block(["a", "b"], np.array([1]))
        with pytest.raises(ValueError):
            accountant.price_sample_block(["a"], np.array([-1]))


class TestDeploymentPricing:
    """Hop-weighted pricing through a real deployment's own fabric."""

    def make_deployment(self):
        source = DeploymentSpec(topology=TopologySpec(num_spines=2, num_leaves=2,
                                                      servers_per_leaf=2),
                                trace_duration=7200.0, seed=3).open()
        return source, source.accountant(), source.topology

    def test_every_point_is_priced_with_its_fabric_distance(self):
        deployment, accountant, graph = self.make_deployment()
        for point in deployment.pairs():
            node = point.device.device_id
            role = graph.nodes[node]["role"]
            expected_hops = {NodeRole.SPINE: 1, NodeRole.LEAF: 2,
                             NodeRole.SERVER: 3}[role]
            assert accountant.hops(node) == expected_hops
            cost = accountant.price_samples(node, 100)
            assert cost.transmission == pytest.approx(100 * 64.0 * expected_hops)

    def test_server_points_cost_more_than_spine_points(self):
        deployment, accountant, graph = self.make_deployment()
        by_role: dict[str, float] = {}
        for point in deployment.pairs():
            node = point.device.device_id
            role = graph.nodes[node]["role"]
            by_role.setdefault(role, total(accountant.price_samples(node, 1000)))
        assert by_role[NodeRole.SERVER] > by_role[NodeRole.LEAF] > by_role[NodeRole.SPINE]

    def test_deployment_point_block_pricing(self):
        """Vectorised pricing over a deployment's measurement points equals
        per-point scalar pricing, hop counts included."""
        deployment, accountant, _ = self.make_deployment()
        points = [point for point in deployment.pairs()
                  if point.metric.name == "Temperature"]
        devices = [point.device.device_id for point in points]
        counts = np.arange(1, len(points) + 1) * 7
        priced = accountant.price_sample_block(devices, counts)
        totals = (priced["collection_cpu_us"] + priced["transmission"]
                  + priced["storage_bytes"] + priced["analysis"])
        for index, point in enumerate(points):
            scalar = accountant.price_samples(devices[index], int(counts[index]))
            assert totals[index] == pytest.approx(total(scalar))
