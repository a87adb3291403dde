"""Measured-trace fleet survey: analyse recorded telemetry, not a generator.

The paper's survey runs over *measured* production traces.  This example
shows the full measured-data loop on a fleet you can regenerate anywhere:

1. build a synthetic fleet and **export** it to a directory of per-pair
   trace files (rcb or csv) plus a ``manifest.json`` -- the stand-in for a
   directory of recorded production telemetry;
2. re-open that directory as a :class:`MeasuredFleetDataset` and run the
   exact same ``run_survey`` pipeline on it (batched engine, optional
   worker pool and spill sink) -- worker batch specs become file-offset
   slices of the manifest;
3. verify the measured-path records are **byte-identical** to the
   in-memory survey of the original dataset, and compare throughput.

Run with:  python examples/measured_survey.py [--pairs N] [--workers N]

To survey your own recordings, lay them out in the same directory format
(see repro.telemetry.measured) and point ``--dir`` at it -- or use the
CLI: ``repro-monitor export-fleet DIR`` / ``repro-monitor survey
--from-dir DIR``.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table, run_survey
from repro.telemetry import DatasetConfig, FleetDataset, MeasuredFleetDataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=280,
                        help="number of metric-device pairs (paper: 1613)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2,
                        help="survey worker processes for the measured run")
    parser.add_argument("--trace-format", choices=["rcb", "csv"], default="rcb",
                        help="per-pair trace file format")
    parser.add_argument("--dir", type=Path, default=None,
                        help="fleet directory (default: a fresh temp directory)")
    args = parser.parse_args()

    fleet_dir = args.dir or Path(tempfile.mkdtemp(prefix="measured-fleet-"))

    if (fleet_dir / "manifest.json").exists():
        # An existing recording: survey it directly (no synthetic reference
        # to compare against, so skip the export and the byte-identity check).
        measured = MeasuredFleetDataset(fleet_dir)
        print(f"Surveying existing measured fleet at {fleet_dir} "
              f"({len(measured)} recorded pairs, workers={args.workers})...")
        start = time.perf_counter()
        recorded = run_survey(measured, workers=args.workers)
        measured_seconds = time.perf_counter() - start
        print(f"  {len(recorded)} pairs in {measured_seconds:.2f}s "
              f"({len(recorded) / measured_seconds:.0f} pairs/s)\n")
        print("=== Headline statistics (Section 3.2, from the recorded fleet) ===")
        print(format_table([{"statistic": key, "value": value}
                            for key, value in recorded.headline().items()]))
        return

    dataset = FleetDataset(DatasetConfig(pair_count=args.pairs, seed=args.seed))

    print(f"Exporting {args.pairs} pairs to {fleet_dir} ({args.trace_format} traces)...")
    start = time.perf_counter()
    measured = dataset.export(fleet_dir, fmt=args.trace_format)
    export_seconds = time.perf_counter() - start
    trace_files = sorted((fleet_dir / "traces").iterdir())
    trace_bytes = sum(path.stat().st_size for path in trace_files)
    print(f"  wrote {len(trace_files)} trace files ({trace_bytes / 2 ** 20:.1f} MiB) "
          f"+ manifest.json in {export_seconds:.2f}s\n")

    print("Surveying the in-memory (generated) dataset...")
    start = time.perf_counter()
    generated = run_survey(dataset)
    generated_seconds = time.perf_counter() - start

    print(f"Surveying the measured directory (workers={args.workers})...")
    start = time.perf_counter()
    recorded = run_survey(measured, workers=args.workers)
    measured_seconds = time.perf_counter() - start

    # The measured path must reproduce the in-memory survey byte for byte.
    generated_blocks = list(generated.iter_blocks())
    recorded_blocks = list(recorded.iter_blocks())
    assert len(generated_blocks) == len(recorded_blocks)
    for a, b in zip(generated_blocks, recorded_blocks):
        assert a.metric_name == b.metric_name
        assert np.array_equal(a.device_ids, b.device_ids)
        assert np.array_equal(a.nyquist_rate, b.nyquist_rate)
        assert np.array_equal(a.reduction_ratio, b.reduction_ratio, equal_nan=True)
        assert np.array_equal(a.category, b.category)
    assert generated.headline() == recorded.headline()
    print("OK: measured-path records are byte-identical to the in-memory survey\n")

    print("=== Throughput: generated vs measured ===")
    print(format_table([
        {"path": "generated (in-memory)", "workers": 1, "seconds": generated_seconds,
         "pairs_per_second": len(generated) / generated_seconds},
        {"path": f"measured ({args.trace_format} files)", "workers": args.workers,
         "seconds": measured_seconds,
         "pairs_per_second": len(recorded) / measured_seconds},
    ]))

    print("\n=== Headline statistics (Section 3.2, from the recorded fleet) ===")
    print(format_table([{"statistic": key, "value": value}
                        for key, value in recorded.headline().items()]))

    print(f"\nThe fleet directory persists at {fleet_dir}; re-survey it any time with:")
    print(f"  repro-monitor survey --from-dir {fleet_dir} --workers {args.workers}")


if __name__ == "__main__":
    main()
