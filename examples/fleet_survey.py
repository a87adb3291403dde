"""Fleet survey: how over-sampled is a datacenter's monitoring today?

Reproduces the Section 3.2 measurement study on synthetic telemetry: build
a fleet dataset of (metric, device) pairs, estimate every pair's Nyquist
rate, and print the data behind Figures 1, 4 and 5 plus the headline
statistics quoted in the paper's text.

Run with:  python examples/fleet_survey.py [--pairs N]

The pipeline scales far beyond the paper's 1613 pairs.  A 25k-pair
out-of-core run -- trace generation and estimation fanned out to worker
processes, per-pair records streamed to .rcb chunks on disk so memory
stays bounded by --chunk-size -- looks like:

    python examples/fleet_survey.py --pairs 25200 --workers 4 \\
        --chunk-size 512 --spill-dir /tmp/survey-spool

The printed aggregations are identical to an in-memory single-process
run: records are byte-identical across worker counts and the figure
reductions stream block-by-block from the spill directory.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis import (SpillingRecordSink, ascii_bar_chart, ascii_cdf, box_stats,
                            format_table, run_survey)
from repro.telemetry import DatasetConfig, FleetDataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=280,
                        help="number of metric-device pairs (paper: 1613)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for trace generation + estimation")
    parser.add_argument("--chunk-size", type=int, default=1024,
                        help="traces held in memory at once (bounds survey memory)")
    parser.add_argument("--spill-dir", type=Path, default=None,
                        help="stream per-pair record chunks to .rcb files here "
                             "(out-of-core mode for 100k+-pair fleets)")
    args = parser.parse_args()

    dataset = FleetDataset(DatasetConfig(pair_count=args.pairs, seed=args.seed))
    sink = SpillingRecordSink(args.spill_dir) if args.spill_dir is not None else None
    survey = run_survey(dataset, workers=args.workers,
                        chunk_size=args.chunk_size, sink=sink)

    print(f"Surveyed {len(survey)} metric-device pairs across {len(survey.metrics())} metrics\n")

    print("=== Figure 1: fraction of devices sampled above the Nyquist rate ===")
    print(ascii_bar_chart(survey.oversampled_fraction_by_metric(), maximum=1.0))

    print("\n=== Figure 4: CDF of the possible sampling-rate reduction (all metrics pooled) ===")
    ratios = survey.reduction_ratios()
    print(ascii_cdf(ratios))
    for threshold in (10, 100, 1000):
        share = float((ratios >= threshold).mean()) if ratios.size else float("nan")
        print(f"  fraction of pairs reducible by >= {threshold}x: {share:.2f}")

    print("\n=== Figure 5: Nyquist rate per metric (Hz) ===")
    rows = []
    for metric in survey.metrics():
        stats = box_stats(survey.nyquist_rates(metric))
        row = {"metric": metric}
        row.update(stats.as_dict())
        rows.append(row)
    print(format_table(rows, ["metric", "min", "p25", "median", "p75", "max", "count"]))

    print("\n=== Headline statistics (Section 3.2) ===")
    print(format_table([{"statistic": key, "value": value}
                        for key, value in survey.headline().items()]))

    if sink is not None:
        print(f"\nRecord chunks spilled to {args.spill_dir} ({len(sink.files)} rcb files); "
              f"re-open later with SurveyResult(sink=SpillingRecordSink({str(args.spill_dir)!r}))")


if __name__ == "__main__":
    main()
