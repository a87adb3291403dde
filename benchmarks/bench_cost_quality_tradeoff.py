"""The cost-vs-quality trade-off: the claim in the paper's title.

The paper argues that deployments sit at an ad-hoc point on the cost/quality
curve and that Nyquist-informed sampling finds a better sweet spot: much
lower collection/transport/storage cost at essentially the same fidelity.

This bench deploys monitoring on a leaf-spine fabric, evaluates three
policies (fixed-rate baseline, Nyquist-static, adaptive dual-frequency) on
the same measurement points with injected fail-stop events, prices each
with the network cost model, and prints the resulting cost/quality rows.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import CostQualityEvaluator
from repro.analysis.reporting import format_table, write_csv
from repro.network import DeploymentSpec, TopologySpec
from repro.pipeline import (AdaptiveDualRatePolicy, EventKind, FixedRatePolicy,
                            NyquistStaticPolicy, inject_event)

METRICS = ["Link util", "Temperature", "Unicast bytes"]
POINTS_PER_METRIC = 6


def run_tradeoff(seed: int = 97):
    source = DeploymentSpec(topology=TopologySpec(num_spines=2, num_leaves=4, servers_per_leaf=2),
                            trace_duration=43200.0, seed=seed).open()
    policies = [
        FixedRatePolicy(30.0, name="baseline-30s"),
        NyquistStaticPolicy(production_interval=30.0),
        AdaptiveDualRatePolicy(window_duration=3 * 3600.0),
    ]
    evaluator = CostQualityEvaluator(policies, accountant=source.accountant())
    rng = np.random.default_rng(seed)
    for metric in METRICS:
        for pair, reference in source.traces(metric, limit=POINTS_PER_METRIC):
            event_time = reference.start_time + float(rng.uniform(0.5, 0.9)) * reference.duration
            magnitude = 6.0 * reference.std() + 1.0
            modified, event = inject_event(reference, EventKind.STEP, event_time, magnitude)
            evaluator.evaluate_point(pair.device.device_id, metric, modified, event)
    return evaluator


def test_cost_quality_tradeoff(benchmark, output_dir):
    evaluator = benchmark.pedantic(run_tradeoff, rounds=1, iterations=1)

    rows = evaluator.rows()
    relative = evaluator.relative_costs("baseline-30s")
    for row in rows:
        row["cost_vs_baseline"] = relative[row["policy"]]
    write_csv(output_dir / "cost_quality_tradeoff.csv", rows)

    print("\n=== Cost vs. quality: fixed-rate baseline vs Nyquist-informed sampling ===")
    print(format_table(rows))

    by_policy = {row["policy"]: row for row in rows}
    baseline = by_policy["baseline-30s"]
    static = by_policy["nyquist-static"]
    adaptive = by_policy["adaptive-dual-rate"]

    # Who wins and by roughly what factor: both Nyquist-informed policies
    # collect fewer samples than the fixed-rate baseline, at a modest
    # fidelity cost and while still detecting the injected events.
    assert static["samples"] < baseline["samples"]
    assert adaptive["samples"] < baseline["samples"]
    assert static["cost_vs_baseline"] < 0.85
    assert adaptive["cost_vs_baseline"] < 1.0
    assert baseline["mean_nrmse"] < 0.05
    assert static["mean_nrmse"] < 0.4
    assert adaptive["mean_nrmse"] < 0.4
    assert static["detection_rate"] >= 0.7
    assert adaptive["detection_rate"] >= 0.7
