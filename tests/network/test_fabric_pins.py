"""Every fabric deployment the library ships, pinned value for value.

The scenario matrix's three preset fabrics (``presets.default_fabrics``)
and the ``policies`` CLI's default leaf-spine each build a fabric, attach
a collector, draw one measurement point per (device, metric) and generate
reference traces from them.  This test pins, per deployment: the node
list with roles (insertion order), the collector, the cost accountant's
``cache_token`` (the full hop table), a sha256 over every pair's key and
generative parameters, and the bytes of the first trace of each metric.
A refactor of the topology builders or of the deployment layer must leave
every value in ``golden_fabrics.json`` as it is.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.network.monitoring import DeploymentSpec
from repro.network.topology import TopologySpec
from repro.scenarios.presets import default_fabrics

GOLDEN = Path(__file__).with_name("golden_fabrics.json")


def _cli_default_spec() -> DeploymentSpec:
    """The deployment ``repro-monitor policies`` builds with no options."""
    args = build_parser().parse_args(["policies"])
    return DeploymentSpec(
        topology=TopologySpec(num_spines=args.spines, num_leaves=args.leaves,
                              servers_per_leaf=args.servers_per_leaf),
        trace_duration=args.duration_hours * 3600.0, seed=args.seed,
        oversample_factor=4.0)


def deployments() -> dict[str, DeploymentSpec]:
    return {**default_fabrics(), "cli-leaf-spine": _cli_default_spec()}


def snapshot(spec: DeploymentSpec) -> dict:
    """The pinned values of one deployment."""
    source = spec.open()
    pairs_digest = hashlib.sha256()
    for pair in source.pairs():
        pairs_digest.update(repr((pair.key, repr(pair.parameters))).encode())
    traces = {}
    for metric in source.metric_names():
        trace = source.load(source.pairs_for_metric(metric)[0])
        digest = hashlib.sha256(f"{trace.interval!r}|{trace.start_time!r}|".encode())
        digest.update(trace.values.tobytes())
        traces[metric] = digest.hexdigest()
    accountant = source.accountant()
    return {
        "nodes": [[node, data["role"]] for node, data in accountant.topology.nodes.items()],
        "collector": source.collector,
        "accountant": accountant.cache_token(),
        "pairs": pairs_digest.hexdigest(),
        "first_traces": traces,
    }


@pytest.mark.parametrize("name", sorted(deployments()))
def test_fabric_deployment_is_unchanged(name):
    golden = json.loads(GOLDEN.read_text())[name]
    measured = snapshot(deployments()[name])
    for field in ("nodes", "collector", "accountant", "pairs", "first_traces"):
        assert measured[field] == golden[field], f"{name}: {field} drifted from golden"
