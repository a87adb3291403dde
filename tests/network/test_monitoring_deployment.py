"""Unit tests for the monitoring deployment over a fabric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.monitoring import (DeploymentSpec, DeploymentTraceSource,
                                     MonitoringDeployment)
from repro.network.topology import (FatTreeSpec, TopologySpec, WanRingSpec,
                                    build_leaf_spine, servers, switches)
from repro.telemetry.dataset import TracePair
from repro.telemetry.profiles import DeviceRole


@pytest.fixture(scope="module")
def deployment():
    topology = build_leaf_spine(TopologySpec(num_spines=2, num_leaves=2, servers_per_leaf=2))
    return MonitoringDeployment(topology, trace_duration=21600.0, seed=3)


class TestDeployment:
    def test_point_count(self, deployment):
        topology = deployment.topology
        expected = (len(switches(topology)) * len(deployment.switch_metrics)
                    + len(servers(topology)) * len(deployment.server_metrics))
        assert len(deployment.points()) == expected

    def test_points_are_cached(self, deployment):
        assert deployment.points() is deployment.points()

    def test_server_points_only_get_server_metrics(self, deployment):
        server_nodes = set(servers(deployment.topology))
        for point in deployment.points():
            if point.device.device_id in server_nodes:
                assert point.metric.name in deployment.server_metrics

    def test_pairs_for_metric(self, deployment):
        points = DeploymentTraceSource(deployment).pairs_for_metric("Link util")
        assert points
        assert all(point.metric.name == "Link util" for point in points)
        assert len(points) == len(switches(deployment.topology))

    def test_points_are_trace_pairs_keyed_metric_first(self, deployment):
        """A point is a TracePair whose device is its node's profile, keyed
        ``(metric, node)`` like every other pair."""
        server_nodes = set(servers(deployment.topology))
        nodes = set(switches(deployment.topology)) | server_nodes
        for point in deployment.points():
            node = point.device.device_id
            assert isinstance(point, TracePair)
            assert node in nodes
            assert point.key == (point.metric.name, node)
            assert (point.device.role == DeviceRole.SERVER) == (node in server_nodes)

    def test_source_serves_the_deployment_points(self, deployment):
        """The trace source regroups the deployment's own pairs by metric
        instead of re-wrapping them."""
        source = DeploymentTraceSource(deployment)
        pairs = source.pairs()
        assert sorted(map(id, pairs)) == sorted(map(id, deployment.points()))
        order = source.metric_names()
        assert [pair.metric.name for pair in pairs] == sorted(
            (pair.metric.name for pair in pairs), key=order.index)

    def test_oversampled_trace_vs_production(self, deployment):
        pair = DeploymentTraceSource(deployment).pairs_for_metric("Temperature")[0]
        reference = DeploymentTraceSource(deployment, 4.0).load(pair)
        production = DeploymentTraceSource(deployment, 1.0).load(pair)
        assert reference.sampling_rate == pytest.approx(production.sampling_rate * 4.0)
        assert len(reference) == pytest.approx(4 * len(production), abs=4)

    def test_source_rejects_bad_factor(self, deployment):
        with pytest.raises(ValueError):
            DeploymentTraceSource(deployment, oversample_factor=0.5)

    def test_traces_are_deterministic(self, deployment):
        source = DeploymentTraceSource(deployment, 1.0)
        pair = source.pairs()[0]
        np.testing.assert_allclose(source.load(pair).values, source.load(pair).values)

    def test_traces_limit(self, deployment):
        pairs = list(DeploymentTraceSource(deployment).traces("Link util", limit=2))
        assert len(pairs) == 2
        for pair, trace in pairs:
            assert pair.metric.name == "Link util"
            assert len(trace) > 0


class TestFabricDeployments:
    """DeploymentSpec over the non-leaf-spine fabrics: every cell of the
    scenario matrix must come out hop-priced on its own topology."""

    def test_fat_tree_spec_opens_and_prices_hops(self):
        spec = DeploymentSpec(topology=FatTreeSpec(k=2), trace_duration=3600.0,
                              seed=7, oversample_factor=2.0)
        source = spec.open()
        assert len(source.pairs()) > 0
        accountant = source.accountant()
        devices = {pair.key[1] for pair in source.pairs()}
        assert all(accountant.hops(device) >= 1 for device in devices)

    def test_wan_ring_hop_pricing_is_asymmetric(self):
        """Far-side devices pay more transit hops than collector-site ones."""
        spec = DeploymentSpec(
            topology=WanRingSpec(num_sites=4, routers_per_site=1, servers_per_site=1),
            trace_duration=3600.0, seed=7, oversample_factor=2.0)
        source = spec.open()
        accountant = source.accountant()
        assert [accountant.hops(f"pop-{site}-0") for site in range(4)] == [1, 2, 3, 2]
        near = accountant.price_samples("pop-0-0", 1000)
        far = accountant.price_samples("pop-2-0", 1000)
        assert far.transmission == 3 * near.transmission

    def test_single_device_wan_deployment_serves_pairs(self):
        """One router, no servers: degenerate but fully functional."""
        spec = DeploymentSpec(
            topology=WanRingSpec(num_sites=1, routers_per_site=1, servers_per_site=0),
            trace_duration=3600.0, seed=7, oversample_factor=2.0)
        source = spec.open()
        pairs = source.pairs()
        assert pairs
        assert {pair.key[1] for pair in pairs} == {"pop-0-0"}
        trace = source.load(pairs[0])
        assert len(trace) > 0
        assert source.accountant().hops("pop-0-0") == 1

    def test_wan_ring_spec_survives_worker_round_trip(self):
        import pickle

        spec = DeploymentSpec(
            topology=WanRingSpec(num_sites=2, routers_per_site=1, servers_per_site=1),
            trace_duration=3600.0, seed=7, oversample_factor=2.0)
        source = spec.open()
        clone = pickle.loads(pickle.dumps(source.worker_spec())).open()
        pair, other = source.pairs()[0], clone.pairs()[0]
        assert pair.key == other.key
        np.testing.assert_array_equal(source.load(pair).values,
                                      clone.load(other).values)
