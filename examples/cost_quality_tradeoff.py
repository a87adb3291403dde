"""Cost vs. quality at fleet scale: pricing three sampling policies on a fabric.

This is the experiment behind the paper's title, run through the
fleet-scale policy survey.  We build a leaf-spine datacenter, deploy the
standard monitoring metrics on its switches and servers, and compare three
ways of sampling every (metric, device) pair:

* the fixed-rate baseline (today's ad-hoc polling interval),
* the Nyquist-static policy (calibrate once, then poll at the Nyquist rate),
* the adaptive dual-frequency policy of Section 4.

``run_policy_survey`` evaluates the whole fleet a trace batch at a time:
each policy collects from the whole batch at once (one
spectral-calibration call for the static policy, the controller stepping
every row together) and every group of equal-shape collected streams is
reconstructed with one FFT pair.  It prices every point with the hop-weighted
collection/transmission/storage/analysis cost model, and scales exactly
like the Nyquist survey: ``--workers`` fans the evaluation out to a
process pool (byte-identical records) and ``--spill-dir`` streams the
per-point record blocks to disk so memory stays bounded.

For per-point event-detection scoring (injected fail-stop steps and the
detection-latency columns), see ``repro.analysis.CostQualityEvaluator``:
it runs the same policy collections on one trace at a time, scores the
collected streams for detection and writes the same columnar records
and rows.

Run with:  python examples/cost_quality_tradeoff.py [--leaves N] [--workers N]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis import format_table, run_policy_survey
from repro.network import DeploymentSpec, TopologySpec
from repro.pipeline import PolicySuite
from repro.records import SpillingRecordSink


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spines", type=int, default=2)
    parser.add_argument("--leaves", type=int, default=4)
    parser.add_argument("--servers-per-leaf", type=int, default=4)
    parser.add_argument("--duration-hours", type=float, default=12.0)
    parser.add_argument("--seed", type=int, default=19)
    parser.add_argument("--workers", type=int, default=1,
                        help=">= 2 fans the evaluation out to a process pool")
    parser.add_argument("--spill-dir", type=Path, default=None,
                        help="stream record blocks to disk (out-of-core run)")
    args = parser.parse_args()

    spec = DeploymentSpec(
        topology=TopologySpec(num_spines=args.spines, num_leaves=args.leaves,
                              servers_per_leaf=args.servers_per_leaf),
        trace_duration=args.duration_hours * 3600.0,
        seed=args.seed,
        oversample_factor=4.0)
    source = spec.open()
    accountant = source.accountant()
    suite = PolicySuite(production_oversample=4.0, adaptive_window=4 * 3600.0)

    sink = SpillingRecordSink(args.spill_dir) if args.spill_dir is not None else None
    result = run_policy_survey(source, suite, accountant=accountant,
                               workers=args.workers, sink=sink)

    print(f"Evaluated {len(source)} measurement points on a "
          f"{len(source.topology)}-node leaf-spine fabric "
          f"(collector at {source.collector})\n")
    print(format_table(result.rows()))
    print()
    relative = result.relative_costs("fixed")
    print("Total monitoring cost relative to the fixed-rate baseline:")
    for policy, fraction in relative.items():
        print(f"  {policy:22s} {fraction:.2f}x")
    if args.spill_dir is not None:
        print(f"\nRecord chunks spilled to {args.spill_dir} "
              f"({len(result.sink.files)} files)")


if __name__ == "__main__":
    main()
