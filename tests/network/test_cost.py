"""Unit tests for the monitoring cost model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.network.cost import CostBreakdown, CostModel, TelemetryCostAccountant
from repro.network.monitoring import MonitoringDeployment
from repro.network.topology import (NodeRole, TopologySpec, attach_collector,
                                    build_leaf_spine)


class TestCostModel:
    def test_defaults_are_valid(self):
        CostModel()

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            CostModel(bytes_per_sample=-1.0)
        with pytest.raises(ValueError):
            CostModel(analysis_cost_per_sample=-0.5)


class TestCostBreakdown:
    def test_total_is_sum_of_components(self):
        breakdown = CostBreakdown(samples=10, collection_cpu_us=1.0, transmission=2.0,
                                  storage_bytes=3.0, analysis=4.0)
        assert breakdown.total == pytest.approx(10.0)

    def test_add_accumulates(self):
        total = CostBreakdown()
        total.add(CostBreakdown(samples=5, storage_bytes=10.0))
        total.add(CostBreakdown(samples=3, storage_bytes=20.0))
        assert total.samples == 8
        assert total.storage_bytes == 30.0

    def test_as_dict_keys(self):
        keys = set(CostBreakdown().as_dict())
        assert {"samples", "collection_cpu_us", "transmission", "storage_bytes",
                "analysis", "total"} == keys

    def test_relative_to(self):
        baseline = CostBreakdown(samples=10, storage_bytes=100.0)
        half = CostBreakdown(samples=5, storage_bytes=50.0)
        relative = half.relative_to(baseline)
        assert relative["samples"] == pytest.approx(0.5)
        assert relative["storage_bytes"] == pytest.approx(0.5)

    def test_relative_to_zero_baseline_is_nan(self):
        relative = CostBreakdown().relative_to(CostBreakdown())
        assert math.isnan(relative["total"])


class TestAccountant:
    def make_accountant(self):
        graph = build_leaf_spine(TopologySpec(num_spines=2, num_leaves=2, servers_per_leaf=2))
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
        assert two.total == pytest.approx(2 * one.total)

    def test_price_components(self):
        model = CostModel(bytes_per_sample=10.0, collection_cpu_us=1.0,
                          transmission_cost_per_byte_hop=1.0, storage_cost_per_byte=1.0,
                          analysis_cost_per_sample=1.0)
        accountant = TelemetryCostAccountant(cost_model=model, default_hops=2)
        cost = accountant.price_samples("dev", 5)
        assert cost.collection_cpu_us == pytest.approx(5.0)
        assert cost.storage_bytes == pytest.approx(50.0)
        assert cost.transmission == pytest.approx(100.0)
        assert cost.analysis == pytest.approx(5.0)

    def test_negative_samples_rejected(self):
        accountant, _, _ = self.make_accountant()
        with pytest.raises(ValueError):
            accountant.price_samples("leaf-0", -1)

    def test_collector_must_exist(self):
        graph = build_leaf_spine()
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
        graph = build_leaf_spine(TopologySpec(num_spines=2, num_leaves=2, servers_per_leaf=2))
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
    """Satellite coverage: hop-weighted pricing through a real
    MonitoringDeployment topology (previously only exercised indirectly)."""

    def make_deployment(self):
        graph = build_leaf_spine(TopologySpec(num_spines=2, num_leaves=2,
                                              servers_per_leaf=2))
        collector = attach_collector(graph)
        deployment = MonitoringDeployment(graph, trace_duration=7200.0, seed=3)
        return deployment, TelemetryCostAccountant(topology=graph, collector=collector), graph

    def test_every_point_is_priced_with_its_fabric_distance(self):
        deployment, accountant, graph = self.make_deployment()
        for point in deployment.points():
            node = point.device.device_id
            role = graph.nodes[node]["role"]
            expected_hops = {NodeRole.SPINE: 1, NodeRole.LEAF: 2,
                             NodeRole.SERVER: 3}[role]
            assert accountant.hops(node) == expected_hops
            cost = accountant.price_samples(node, 100)
            model = accountant.cost_model
            assert cost.transmission == pytest.approx(
                100 * model.bytes_per_sample * expected_hops
                * model.transmission_cost_per_byte_hop)

    def test_server_points_cost_more_than_spine_points(self):
        deployment, accountant, graph = self.make_deployment()
        by_role: dict[str, float] = {}
        for point in deployment.points():
            node = point.device.device_id
            role = graph.nodes[node]["role"]
            by_role.setdefault(role, accountant.price_samples(node, 1000).total)
        assert by_role[NodeRole.SERVER] > by_role[NodeRole.LEAF] > by_role[NodeRole.SPINE]

    def test_deployment_point_block_pricing(self):
        """Vectorised pricing over a deployment's measurement points equals
        per-point scalar pricing, hop counts included."""
        deployment, accountant, _ = self.make_deployment()
        points = [point for point in deployment.points()
                  if point.metric.name == "Temperature"]
        devices = [point.device.device_id for point in points]
        counts = np.arange(1, len(points) + 1) * 7
        priced = accountant.price_sample_block(devices, counts)
        totals = (priced["collection_cpu_us"] + priced["transmission"]
                  + priced["storage_bytes"] + priced["analysis"])
        for index, point in enumerate(points):
            scalar = accountant.price_samples(devices[index], int(counts[index]))
            assert totals[index] == pytest.approx(scalar.total)
