"""Raw-export ingest throughput: lines/sec, bounded memory, shard scaling.

The streaming importer (:mod:`repro.telemetry.ingest`) is the door through
which production archives enter the survey pipeline, so its throughput and
memory ceiling are tracked in ``BENCH_ingest.json`` alongside the survey
and policy trajectories:

* **gnmi** -- a ~1k-pair synthetic fleet exported as one interleaved
  gNMI-style JSON-lines stream (all pairs merged in time order, the worst
  case for the accumulator: every pair's buffer stays hot at once), then
  ingested with a deliberately small ``memory_budget_samples``.  Records
  lines/sec, updates/sec, the peak in-memory accumulator size (the
  peak-RSS proxy: buffered samples x 16 bytes of array payload) and the
  spill volume; asserts the peak stayed within the budget and that the
  ingested directory surveys bit-identically to the originating fleet.
* **snmp** -- the same fleet as an SNMP-poller wide CSV (one row per
  poll per device), ingested and verified the same way.  One measured
  pass reports *both* rates with distinct semantics: ``lines_per_second``
  counts data lines (rows, header excluded), ``updates_per_second``
  counts parsed samples -- a wide CSV row expands to many updates, so the
  two differ by roughly the metric-column count.
* **shard_scaling** -- the sharded pipeline (``ingest_dump(workers=N)``)
  over the gNMI dump for ``workers in (1, 2, 4)``: every sharded run must
  be byte-identical to the serial one and keep each shard's accumulator
  peak within its per-shard budget; wall-clock speedups are recorded.
  The >=2.5x floor at 4 workers is asserted only with >= 4 CPU cores and
  a non-zero ``REPRO_BENCH_INGEST_MIN_SPEEDUP`` (CI smoke runs relax it,
  as with the other bench floors; numbers are recorded regardless).

Sizes via ``REPRO_BENCH_INGEST_PAIRS`` (default 1008) and
``REPRO_BENCH_INGEST_DURATION`` seconds per trace (default 14400); the CI
smoke job shrinks both to stay inside its time budget.
``REPRO_BENCH_INGEST_WORKERS`` caps the shard sweep (default 4).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.survey import run_survey
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.ingest import export_gnmi_dump, export_snmp_dump, ingest_dump

from conftest import BENCH_INGEST_JSON, update_bench_json

#: Fleet size of the fabricated dumps (>= 1000 pairs by default: the
#: acceptance workload for the importer).
INGEST_PAIRS = int(os.environ.get("REPRO_BENCH_INGEST_PAIRS", "1008"))

#: Seconds of telemetry per pair (4 hours keeps the default dump ~500k
#: updates; a full paper-scale day triples it).
INGEST_DURATION = float(os.environ.get("REPRO_BENCH_INGEST_DURATION", "14400"))

#: In-memory accumulator budget, deliberately far below the dump's total
#: sample count so the spill path carries most of the stream.
MEMORY_BUDGET_SAMPLES = int(os.environ.get("REPRO_BENCH_INGEST_BUDGET", "65536"))

#: Largest worker count in the shard-scaling sweep.
SHARD_WORKERS = int(os.environ.get("REPRO_BENCH_INGEST_WORKERS", "4"))

#: Speed-up floor asserted for the 4-worker sharded ingest when enough
#: cores are available; 0 records numbers without enforcing (CI smoke).
MIN_SHARD_SPEEDUP = float(os.environ.get("REPRO_BENCH_INGEST_MIN_SPEEDUP", "2.5"))


def _assert_bit_identical_survey(fleet, ingested) -> None:
    reference = {(r.metric_name, r.device_id): r for r in run_survey(fleet).records}
    records = run_survey(ingested).records
    assert len(records) == len(reference)
    for record in records:
        expected = reference[(record.metric_name, record.device_id)]
        assert record.nyquist_rate == expected.nyquist_rate
        assert record.category is expected.category
        assert (record.reduction_ratio == expected.reduction_ratio
                or (np.isnan(record.reduction_ratio)
                    and np.isnan(expected.reduction_ratio)))


def _assert_directories_byte_identical(left: Path, right: Path) -> None:
    left_files = sorted(str(p.relative_to(left)) for p in left.rglob("*") if p.is_file())
    right_files = sorted(str(p.relative_to(right)) for p in right.rglob("*") if p.is_file())
    assert left_files == right_files, (left_files, right_files)
    for rel in left_files:
        assert (left / rel).read_bytes() == (right / rel).read_bytes(), \
            f"{rel} differs between {left} and {right}"


def _run_ingest_bench(section: str, exporter, dump_name: str, tmp_path,
                      header_lines: int) -> dict:
    fleet = FleetDataset(DatasetConfig(pair_count=INGEST_PAIRS, seed=7,
                                       trace_duration=INGEST_DURATION))
    dump = tmp_path / dump_name

    start = time.perf_counter()
    exporter(fleet, dump)
    export_seconds = time.perf_counter() - start
    with dump.open() as handle:
        lines = sum(1 for _ in handle)
    data_lines = lines - header_lines

    start = time.perf_counter()
    ingested = ingest_dump(dump, tmp_path / f"fleet-{section}",
                           memory_budget_samples=MEMORY_BUDGET_SAMPLES)
    ingest_seconds = time.perf_counter() - start

    manifest = json.loads((tmp_path / f"fleet-{section}" / "manifest.json").read_text())
    stats = ingested.ingest_stats
    # The whole point of the accumulator: peak memory bounded by the budget.
    assert stats.peak_buffered_samples <= MEMORY_BUDGET_SAMPLES
    assert stats.spilled_samples > 0, "budget never hit; bench not exercising spill"
    assert len(ingested) == INGEST_PAIRS
    _assert_bit_identical_survey(fleet, ingested)

    # Two rates from the same measured pass, with distinct semantics:
    # lines/sec counts *data lines* parsed (header excluded), updates/sec
    # counts *samples* produced.  They coincide for gNMI (one update per
    # line) and diverge for wide SNMP rows (one update per populated cell).
    payload = {
        "pairs": INGEST_PAIRS,
        "trace_seconds": INGEST_DURATION,
        "dump_lines": lines,
        "data_lines": data_lines,
        "updates": manifest["ingest"]["updates"],
        "dump_bytes": dump.stat().st_size,
        "export_seconds": export_seconds,
        "ingest_seconds": ingest_seconds,
        "lines_per_second": data_lines / ingest_seconds,
        "updates_per_second": stats.updates / ingest_seconds,
        "memory_budget_samples": MEMORY_BUDGET_SAMPLES,
        "peak_buffered_samples": stats.peak_buffered_samples,
        "peak_buffer_bytes": stats.peak_buffered_samples * 16,
        "spilled_samples": stats.spilled_samples,
        "spill_writes": stats.spill_writes,
        "cpu_count": os.cpu_count() or 1,
    }
    update_bench_json(section, payload, path=BENCH_INGEST_JSON)
    return payload


def test_gnmi_ingest_throughput(output_dir, tmp_path):
    payload = _run_ingest_bench("gnmi", export_gnmi_dump, "fleet.jsonl", tmp_path,
                                header_lines=0)
    print(f"\n=== gNMI ingest ({INGEST_PAIRS} pairs interleaved) ===")
    print(format_table([{
        "lines": payload["data_lines"], "seconds": payload["ingest_seconds"],
        "lines_per_second": payload["lines_per_second"],
        "updates_per_second": payload["updates_per_second"],
        "peak_buffer_mib": payload["peak_buffer_bytes"] / 2 ** 20,
        "spilled_samples": payload["spilled_samples"],
    }]))


def test_snmp_ingest_throughput(output_dir, tmp_path):
    payload = _run_ingest_bench("snmp", export_snmp_dump, "fleet.csv", tmp_path,
                                header_lines=1)
    print(f"\n=== SNMP ingest ({INGEST_PAIRS} pairs, wide CSV) ===")
    print(format_table([{
        "rows": payload["data_lines"], "seconds": payload["ingest_seconds"],
        "lines_per_second": payload["lines_per_second"],
        "updates_per_second": payload["updates_per_second"],
        "peak_buffer_mib": payload["peak_buffer_bytes"] / 2 ** 20,
        "spilled_samples": payload["spilled_samples"],
    }]))


def test_sharded_ingest_scaling(output_dir, tmp_path):
    fleet = FleetDataset(DatasetConfig(pair_count=INGEST_PAIRS, seed=7,
                                       trace_duration=INGEST_DURATION))
    dump = tmp_path / "fleet.jsonl"
    export_gnmi_dump(fleet, dump)
    with dump.open() as handle:
        lines = sum(1 for _ in handle)

    sweep = [n for n in (1, 2, 4) if n <= max(1, SHARD_WORKERS)]
    results: dict[str, dict] = {}
    serial_dir = tmp_path / "shards-1"
    for workers in sweep:
        out_dir = tmp_path / f"shards-{workers}"
        start = time.perf_counter()
        ingested = ingest_dump(dump, out_dir,
                               memory_budget_samples=MEMORY_BUDGET_SAMPLES,
                               workers=workers)
        seconds = time.perf_counter() - start
        stats = ingested.ingest_stats
        # Correctness first: any worker count publishes the same bytes,
        # and every shard's accumulator peak respects its slice of the
        # budget (the whole budget for the serial run).
        if workers > 1:
            _assert_directories_byte_identical(serial_dir, out_dir)
            for shard in stats.shards:
                assert shard.peak_buffered_samples <= shard.memory_budget_samples
        else:
            assert stats.peak_buffered_samples <= MEMORY_BUDGET_SAMPLES
        results[str(workers)] = {
            "ingest_seconds": seconds,
            "lines_per_second": lines / seconds,
            "speedup_vs_serial": results["1"]["ingest_seconds"] / seconds
                                 if workers > 1 else 1.0,
            "ranges": stats.ranges,
            "peak_buffered_samples": stats.peak_buffered_samples,
            "per_shard_budget": (stats.shards[0].memory_budget_samples
                                 if stats.shards else MEMORY_BUDGET_SAMPLES),
        }

    cpu_count = os.cpu_count() or 1
    enforce = (MIN_SHARD_SPEEDUP > 0 and cpu_count >= 4 and "4" in results)
    payload = {
        "pairs": INGEST_PAIRS,
        "dump_lines": lines,
        "memory_budget_samples": MEMORY_BUDGET_SAMPLES,
        "cpu_count": cpu_count,
        "min_speedup_floor": MIN_SHARD_SPEEDUP,
        "floor_enforced": enforce,
        "workers": results,
    }
    update_bench_json("shard_scaling", payload, path=BENCH_INGEST_JSON)

    print(f"\n=== Sharded ingest scaling ({INGEST_PAIRS} pairs, gNMI, "
          f"{cpu_count} cores) ===")
    print(format_table([{
        "workers": workers, "seconds": row["ingest_seconds"],
        "lines_per_second": row["lines_per_second"],
        "speedup": row["speedup_vs_serial"],
        "peak_buffered": row["peak_buffered_samples"],
        "per_shard_budget": row["per_shard_budget"],
    } for workers, row in results.items()]))

    if enforce:
        assert results["4"]["speedup_vs_serial"] >= MIN_SHARD_SPEEDUP, (
            f"4-worker sharded ingest managed only "
            f"{results['4']['speedup_vs_serial']:.2f}x over serial "
            f"(floor {MIN_SHARD_SPEEDUP}x)")
    else:
        print(f"(speed-up floor not enforced: {cpu_count} cores, "
              f"floor {MIN_SHARD_SPEEDUP})")
