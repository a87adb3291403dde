"""Ingesting raw monitoring exports: from a telemetry dump to survey figures.

Production monitoring archives are not tidy per-pair trace directories --
they are *streams*: gNMI collectors append one JSON update per line with
every (metric, device) pair interleaved, and SNMP pollers tabulate wide
per-poll CSV rows.  This example walks the full ingestion loop on a dump
you can fabricate anywhere:

1. build a synthetic fleet and export it as a **raw dump** in either wire
   format (``--wire gnmi-jsonl`` or ``--wire snmp-csv``) -- the stand-in
   for a real monitoring export;
2. **ingest** the dump with a deliberately small ``--memory-budget``, so
   the bounded-memory path (per-pair spill scratch files) is visibly
   exercised, into a measured-fleet directory;
3. survey both the original fleet and the ingested directory and verify
   the records are **bit-identical** pair for pair (ingested fleets carry
   no ground-truth rates and list pairs in canonical order; everything
   the estimator produces must match exactly).

Run with:  python examples/ingest_survey.py [--pairs N] [--wire FORMAT]

To ingest your own exports, skip the fabrication and use the CLI:
``repro-monitor ingest DUMP FLEET_DIR`` then ``repro-monitor survey
--from-dir FLEET_DIR`` (or ``repro-monitor policies --from-dir``).
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table, run_survey
from repro.telemetry import (DatasetConfig, FleetDataset, GNMI_FORMAT, SNMP_FORMAT,
                             export_gnmi_dump, export_snmp_dump, ingest_dump)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=112,
                        help="number of metric-device pairs to fabricate")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration-hours", type=float, default=6.0,
                        help="hours of telemetry per pair")
    parser.add_argument("--wire", choices=[GNMI_FORMAT, SNMP_FORMAT],
                        default=GNMI_FORMAT, help="dump wire format to fabricate")
    parser.add_argument("--memory-budget", type=int, default=8192,
                        help="accumulator budget in samples (16 bytes each); small "
                             "by default so the spill path runs")
    parser.add_argument("--workers", type=int, default=2,
                        help="survey worker processes for the ingested run")
    args = parser.parse_args()

    work_dir = Path(tempfile.mkdtemp(prefix="ingest-survey-"))
    fleet = FleetDataset(DatasetConfig(pair_count=args.pairs, seed=args.seed,
                                       trace_duration=args.duration_hours * 3600.0))

    suffix = "jsonl" if args.wire == GNMI_FORMAT else "csv"
    dump = work_dir / f"export.{suffix}"
    print(f"Fabricating a {args.wire} dump from {args.pairs} pairs "
          f"({args.duration_hours:g} h each)...")
    start = time.perf_counter()
    if args.wire == GNMI_FORMAT:
        export_gnmi_dump(fleet, dump)
    else:
        export_snmp_dump(fleet, dump)
    with dump.open() as handle:
        lines = sum(1 for _ in handle)
    print(f"  {dump}: {lines} lines ({dump.stat().st_size / 2 ** 20:.1f} MiB) "
          f"in {time.perf_counter() - start:.2f}s\n")

    fleet_dir = work_dir / "fleet"
    print(f"Ingesting with a {args.memory_budget}-sample budget "
          f"(~{args.memory_budget * 16 / 2 ** 10:.0f} KiB of buffered samples)...")
    start = time.perf_counter()
    ingested = ingest_dump(dump, fleet_dir, memory_budget_samples=args.memory_budget)
    ingest_seconds = time.perf_counter() - start
    summary = json.loads((fleet_dir / "manifest.json").read_text())["ingest"]
    stats = ingested.ingest_stats  # run counters live on the dataset, not the manifest
    print(format_table([{
        "updates": summary["updates"],
        "lines_per_second": lines / ingest_seconds,
        "peak_buffered": stats.peak_buffered_samples,
        "budget": stats.memory_budget_samples,
        "spilled_samples": stats.spilled_samples,
        "spill_writes": stats.spill_writes,
    }]))
    assert stats.peak_buffered_samples <= args.memory_budget
    print(f"  -> {len(ingested)} pairs in {fleet_dir} "
          f"({ingest_seconds:.2f}s; peak accumulator stayed within budget)\n")

    print("Surveying the original in-memory fleet...")
    reference = run_survey(fleet)
    print(f"Surveying the ingested directory (workers={args.workers})...")
    recorded = run_survey(ingested, workers=args.workers)

    # Bit-identical records, aligned by (metric, device): the ingested
    # manifest lists pairs in canonical order, the fleet in seeded order.
    by_key = {(r.metric_name, r.device_id): r for r in reference.records}
    for record in recorded.records:
        expected = by_key.pop((record.metric_name, record.device_id))
        assert record.nyquist_rate == expected.nyquist_rate
        assert record.category is expected.category
        assert (record.reduction_ratio == expected.reduction_ratio
                or (np.isnan(record.reduction_ratio)
                    and np.isnan(expected.reduction_ratio)))
    assert not by_key
    print("OK: ingested records are bit-identical to the in-memory survey\n")

    print("=== Headline statistics (Section 3.2, from the ingested dump) ===")
    print(format_table([{"statistic": key, "value": value}
                        for key, value in recorded.headline().items()]))

    print(f"\nThe dump and fleet directory persist under {work_dir}; re-run with:")
    print(f"  repro-monitor ingest {dump} NEW_DIR && "
          "repro-monitor survey --from-dir NEW_DIR")


if __name__ == "__main__":
    main()
