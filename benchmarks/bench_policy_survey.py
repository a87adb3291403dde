"""Fleet policy survey: throughput + the cost/quality trajectory of the title claim.

The paper's headline is that Nyquist-informed sampling finds a better
cost/quality sweet spot than today's ad-hoc fixed-rate polling.  This
bench runs the fleet-scale policy survey end to end -- a leaf-spine
deployment served through :class:`DeploymentTraceSource`, the three-policy
:class:`PolicySuite`, hop-weighted pricing via
:class:`TelemetryCostAccountant` -- and records two trajectories in
``BENCH_policies.json`` (uploaded by CI alongside ``BENCH_survey.json``):

* **pipeline** -- evaluation throughput in points/second, single-process
  vs ``workers=2`` (records must be byte-identical), plus the out-of-core
  spill run, with the host's ``cpu_count`` and platform/CPU model; like
  the Nyquist survey bench, no worker speed-up is asserted on 1-CPU
  hosts -- the numbers are recorded for multi-core runs.
* **tradeoff** -- the relative-cost/quality table itself: the bench
  asserts the paper's ordering (fixed > Nyquist-static > adaptive total
  cost at bounded reconstruction error) so a regression in any layer of
  the policy stack shows up as a broken trajectory, not just a slower one.

Size via ``REPRO_BENCH_POLICY_LEAVES`` / ``REPRO_BENCH_POLICY_HOURS``
(CI smoke uses a small fabric to stay inside its time budget).
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np

from repro.analysis.policy_survey import run_policy_survey
from repro.analysis.reporting import format_table, write_csv
from repro.network.monitoring import DeploymentSpec
from repro.network.topology import TopologySpec
from repro.pipeline.policies import PolicySuite
from repro.records import SpillingRecordSink

from conftest import BENCH_POLICIES_JSON, update_bench_json

#: Demo fabric width (leaves; spines fixed at 2, two servers per leaf).
POLICY_LEAVES = int(os.environ.get("REPRO_BENCH_POLICY_LEAVES", "4"))

#: Reference trace length in hours.
POLICY_HOURS = float(os.environ.get("REPRO_BENCH_POLICY_HOURS", "12"))

#: Columns asserted byte-identical between worker counts.
_COLUMNS = ("device_ids", "samples", "mean_rate_hz", "nrmse", "max_abs_error",
            "hops", "collection_cpu_us", "transmission", "storage_bytes", "analysis")


def _demo():
    spec = DeploymentSpec(
        topology=TopologySpec(num_spines=2, num_leaves=POLICY_LEAVES,
                              servers_per_leaf=2),
        trace_duration=POLICY_HOURS * 3600.0, seed=11, oversample_factor=4.0)
    source = spec.open()
    suite = PolicySuite(production_oversample=4.0, adaptive_window=4 * 3600.0)
    return source, source.accountant(), suite


def _host() -> str:
    """The measuring host: platform string and, on Linux, the CPU model."""
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return f"{platform.platform()} {model}".strip()


def test_policy_pipeline_workers_identical_records(output_dir, tmp_path):
    """run_policy_survey single-process vs worker pool vs spilled: same blocks."""
    source, accountant, suite = _demo()
    points = len(source)

    start = time.perf_counter()
    single = run_policy_survey(source, suite, accountant=accountant, chunk_size=64)
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pooled = run_policy_survey(source, suite, accountant=accountant, chunk_size=64,
                               workers=2)
    pooled_seconds = time.perf_counter() - start

    start = time.perf_counter()
    spilled = run_policy_survey(source, suite, accountant=accountant, chunk_size=64,
                                workers=2, sink=SpillingRecordSink(tmp_path / "spool"))
    spilled_seconds = time.perf_counter() - start

    for other in (pooled, spilled):
        blocks_a, blocks_b = list(single.iter_blocks()), list(other.iter_blocks())
        assert len(blocks_a) == len(blocks_b)
        for a, b in zip(blocks_a, blocks_b):
            assert (a.metric_name, a.policy_name) == (b.metric_name, b.policy_name)
            for column in _COLUMNS:
                assert np.array_equal(getattr(a, column), getattr(b, column),
                                      equal_nan=getattr(a, column).dtype == np.float64)

    spill_bytes = sum(path.stat().st_size for path in spilled.sink.files)
    update_bench_json("pipeline", {
        "points": points,
        "policies": single.policies(),
        "rows": len(single),
        "workers1_points_per_second": points / single_seconds,
        "workers2_points_per_second": points / pooled_seconds,
        "spilled_points_per_second": points / spilled_seconds,
        "spill_files": len(spilled.sink.files),
        "spill_bytes": spill_bytes,
        "cpu_count": os.cpu_count(),
        "host": _host(),
    }, path=BENCH_POLICIES_JSON)
    print(f"\n=== Policy survey pipeline ({points} points x 3 policies) ===")
    print(format_table([
        {"mode": "workers=1", "seconds": single_seconds,
         "points_per_second": points / single_seconds},
        {"mode": "workers=2", "seconds": pooled_seconds,
         "points_per_second": points / pooled_seconds},
        {"mode": "workers=2 + spill", "seconds": spilled_seconds,
         "points_per_second": points / spilled_seconds},
    ]))


def test_policy_cost_quality_tradeoff(output_dir):
    """The title claim at fleet scale: relative cost ordering + bounded error."""
    source, accountant, suite = _demo()

    start = time.perf_counter()
    result = run_policy_survey(source, suite, accountant=accountant, workers=2,
                               chunk_size=64)
    seconds = time.perf_counter() - start

    rows = result.rows()
    relative = result.relative_costs("fixed")
    for row in rows:
        row["cost_vs_fixed"] = relative[str(row["policy"])]
    write_csv(output_dir / "policy_cost_quality.csv", rows)
    print(f"\n=== Fleet cost vs quality ({len(source)} points) ===")
    print(format_table(rows))

    by_policy = {row["policy"]: row for row in rows}
    # Who wins and by what factor: the paper's relative-cost ordering at
    # matched (bounded-nrmse) quality.
    assert relative["fixed"] == 1.0
    assert relative["nyquist-static"] < 0.85
    assert relative["adaptive-dual-rate"] < relative["nyquist-static"]
    assert by_policy["fixed"]["mean_nrmse"] < 0.1
    assert by_policy["nyquist-static"]["mean_nrmse"] < 0.4
    assert by_policy["adaptive-dual-rate"]["mean_nrmse"] < 0.4

    update_bench_json("tradeoff", {
        "points": len(source),
        "seconds": seconds,
        "points_per_second": len(source) / seconds,
        "relative_cost": relative,
        "mean_nrmse": {str(row["policy"]): row["mean_nrmse"] for row in rows},
        "worst_nrmse": {str(row["policy"]): row["worst_nrmse"] for row in rows},
        "samples": {str(row["policy"]): row["samples"] for row in rows},
    }, path=BENCH_POLICIES_JSON)
