"""Unit tests for the monitoring deployment over a fabric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.monitoring import DeploymentSpec
from repro.network.topology import FatTreeSpec, TopologySpec, WanRingSpec, servers, switches
from repro.telemetry.dataset import TracePair
from repro.telemetry.profiles import DeviceRole

SPEC = DeploymentSpec(topology=TopologySpec(num_spines=2, num_leaves=2, servers_per_leaf=2),
                      trace_duration=21600.0, seed=3)
SERVER_METRICS = {"5-pct CPU util", "Memory usage", "Temperature"}


def metrics_by_node(source):
    by_node: dict[str, list[str]] = {}
    for pair in source.pairs():
        by_node.setdefault(pair.device.device_id, []).append(pair.metric.name)
    return by_node


@pytest.fixture(scope="module")
def source():
    return SPEC.open()


class TestDeployment:
    def test_point_count(self, source):
        """Every switch carries the same 12 metrics and every server the same 3, once each."""
        by_node = metrics_by_node(source)
        assert list(by_node) == switches(source.topology) + servers(source.topology)
        switch_metrics = by_node[switches(source.topology)[0]]
        assert len(switch_metrics) == len(set(switch_metrics)) == 12
        for node in switches(source.topology):
            assert sorted(by_node[node]) == sorted(switch_metrics)
        for node in servers(source.topology):
            assert sorted(by_node[node]) == sorted(SERVER_METRICS)
        assert len(source.pairs()) == (12 * len(switches(source.topology))
                                       + 3 * len(servers(source.topology)))

    def test_points_are_cached(self, source):
        assert source.pairs() is source.pairs()

    def test_server_points_only_get_server_metrics(self, source):
        server_nodes = set(servers(source.topology))
        for point in source.pairs():
            if point.device.device_id in server_nodes:
                assert point.metric.name in SERVER_METRICS

    def test_pairs_for_metric(self, source):
        points = source.pairs_for_metric("Link util")
        assert points
        assert all(point.metric.name == "Link util" for point in points)
        assert len(points) == len(switches(source.topology))

    def test_points_are_trace_pairs_keyed_metric_first(self, source):
        """A point is a TracePair whose device is its node's profile, keyed
        ``(metric, node)`` like every other pair."""
        server_nodes = set(servers(source.topology))
        nodes = set(switches(source.topology)) | server_nodes
        for point in source.pairs():
            node = point.device.device_id
            assert isinstance(point, TracePair)
            assert node in nodes
            assert point.key == (point.metric.name, node)
            assert (point.device.role == DeviceRole.SERVER) == (node in server_nodes)

    def test_pairs_are_grouped_by_metric_in_survey_order(self, source):
        """``pairs()`` is the per-metric lists concatenated in metric order."""
        grouped = [pair for name in source.metric_names()
                   for pair in source.pairs_for_metric(name)]
        assert grouped == source.pairs()

    def test_oversampled_trace_vs_production(self, source):
        pair = source.pairs_for_metric("Temperature")[0]
        reference = source.load(pair)
        production = DeploymentSpec(topology=SPEC.topology, trace_duration=SPEC.trace_duration,
                                    seed=SPEC.seed, oversample_factor=1.0).open().load(pair)
        assert reference.sampling_rate == pytest.approx(production.sampling_rate * 4.0)
        assert len(reference) == pytest.approx(4 * len(production), abs=4)

    def test_spec_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            DeploymentSpec(oversample_factor=0.5)

    @pytest.mark.parametrize("field, value", [
        ("trace_duration", float("nan")), ("trace_duration", float("inf")),
        ("trace_duration", float("-inf")), ("trace_duration", 0.0),
        ("trace_duration", -5.0),
        ("oversample_factor", float("nan")), ("oversample_factor", float("inf")),
        ("oversample_factor", float("-inf")),
    ])
    def test_spec_rejects_non_finite_and_non_positive_values(self, field, value):
        """Regression: NaN, inf and a negative duration used to construct and
        fail only when the first trace was cut (or not at all)."""
        with pytest.raises(ValueError, match=field):
            DeploymentSpec(**{field: value})

    def test_traces_are_deterministic(self, source):
        pair = source.pairs()[0]
        np.testing.assert_array_equal(source.load(pair).values, SPEC.open().load(pair).values)

    def test_traces_limit(self, source):
        pairs = list(source.traces("Link util", limit=2))
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

    def test_wan_ring_collector_hangs_off_site_zero_gateway(self):
        spec = DeploymentSpec(
            topology=WanRingSpec(num_sites=3, routers_per_site=2, servers_per_site=1),
            trace_duration=3600.0, seed=7, oversample_factor=2.0)
        source = spec.open()
        assert source.collector == "collector-0"
        assert list(source.topology.neighbors(source.collector)) == ["pop-0-0"]

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
