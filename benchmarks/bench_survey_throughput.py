"""Survey throughput: scalar vs batched engine, multi-worker and out-of-core pipeline.

The ROADMAP north star is fleet-scale analysis ("millions of users", "as
fast as the hardware allows").  This benchmark measures the survey path at
three levels and records every number in ``BENCH_survey.json`` (see
``conftest.update_bench_json``) so the perf trajectory is tracked across
PRs:

* **engine** -- the Section 3.2 estimator over pre-materialised trace
  matrices, scalar (:meth:`NyquistEstimator.estimate` per trace) vs
  batched (:meth:`NyquistEstimator.estimate_batch` per chunk); asserts
  the batched engine is at least ``REPRO_BENCH_MIN_SPEEDUP``x faster
  (default 5) and that both backends agree estimate for estimate.
* **pipeline** -- end-to-end ``run_survey`` (generation + estimation)
  single-process vs ``workers=2``; the records must be identical.  On a
  1-CPU host the worker pool adds overhead rather than speed, so no
  speed-up is asserted -- the number is recorded for multi-core hosts.
* **fleet** -- a 25k+-pair out-of-core survey (``workers=2`` and a
  :class:`SpillingRecordSink`), the scale the paper's always-on fleet
  monitoring argument needs; memory stays bounded by ``chunk_size``
  because every record block is spilled to ``.rcb`` as it is produced.  Size
  via ``REPRO_BENCH_FLEET_PAIRS`` (default 25200; CI smoke uses a small
  fleet to stay under its time budget).
* **measured** -- the recorded-telemetry path: the same fleet exported to
  a per-pair trace-file directory and re-surveyed through
  :class:`MeasuredFleetDataset` (``workers=2``, file-offset batch
  specs).  Records must be byte-identical to the generated in-memory
  survey; both throughputs land in ``BENCH_survey.json`` so the cost of
  reading traces from disk (vs regenerating them) stays visible.  Size
  via ``REPRO_BENCH_MEASURED_PAIRS`` (default 392).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.reporting import format_table, write_csv
from repro.analysis.survey import SpillingRecordSink, run_survey
from repro.core.nyquist import NyquistEstimator
from repro.signals.timeseries import TimeSeries
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.measured import MeasuredFleetDataset

from conftest import update_bench_json

#: Fleet size for the engine throughput comparison (>= 1000 pairs).
THROUGHPUT_PAIRS = 1120

#: Required speed-up of the batched engine over the scalar reference.
REQUIRED_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5"))

#: Fleet size for the out-of-core pipeline benchmark.
FLEET_PAIRS = int(os.environ.get("REPRO_BENCH_FLEET_PAIRS", "25200"))

#: Chunk/spill granularity of the out-of-core run.
FLEET_CHUNK_SIZE = 512

#: Fleet size for the measured-path (recorded trace files) benchmark.
MEASURED_PAIRS = int(os.environ.get("REPRO_BENCH_MEASURED_PAIRS", "392"))


def _best_of(callable_, repeats: int = 3) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batched_engine_speedup(output_dir):
    dataset = FleetDataset(DatasetConfig(pair_count=THROUGHPUT_PAIRS, seed=7))
    batches = list(dataset.trace_batches(chunk_size=512))
    total_pairs = sum(len(batch) for batch in batches)
    assert total_pairs >= 1000
    estimator = NyquistEstimator()

    def run_scalar():
        return [estimator.estimate(TimeSeries(row, batch.interval))
                for batch in batches for row in batch.values]

    def run_batched():
        return [estimate for batch in batches
                for estimate in estimator.estimate_batch(batch.values, batch.interval)]

    scalar_seconds, scalar_estimates = _best_of(run_scalar)
    batched_seconds, batched_estimates = _best_of(run_batched)
    speedup = scalar_seconds / batched_seconds

    for a, b in zip(scalar_estimates, batched_estimates):
        assert a.reliable == b.reliable
        assert a.reason == b.reason
        assert np.isclose(a.nyquist_rate, b.nyquist_rate)

    rows = [
        {"backend": "scalar", "pairs": total_pairs, "seconds": scalar_seconds,
         "pairs_per_second": total_pairs / scalar_seconds},
        {"backend": "batched", "pairs": total_pairs, "seconds": batched_seconds,
         "pairs_per_second": total_pairs / batched_seconds},
        {"backend": "speedup", "pairs": total_pairs, "seconds": speedup,
         "pairs_per_second": float("nan")},
    ]
    write_csv(output_dir / "survey_throughput.csv", rows)
    update_bench_json("engine", {
        "pairs": total_pairs,
        "scalar_pairs_per_second": total_pairs / scalar_seconds,
        "batched_pairs_per_second": total_pairs / batched_seconds,
        "speedup": speedup,
        "cpu_count": os.cpu_count(),
    })
    print(f"\n=== Survey engine throughput ({total_pairs} pairs) ===")
    print(format_table(rows))

    assert speedup >= REQUIRED_SPEEDUP, \
        f"batched engine only {speedup:.1f}x faster (need >= {REQUIRED_SPEEDUP}x)"


def test_pipeline_workers_identical_records(output_dir):
    """End-to-end run_survey: single-process vs worker pool, identical records."""
    dataset = FleetDataset(DatasetConfig(pair_count=392, seed=7))

    start = time.perf_counter()
    single = run_survey(dataset, workers=1, chunk_size=FLEET_CHUNK_SIZE)
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pooled = run_survey(dataset, workers=2, chunk_size=FLEET_CHUNK_SIZE)
    pooled_seconds = time.perf_counter() - start

    assert len(single) == len(pooled) == 392
    for a, b in zip(single.iter_blocks(), pooled.iter_blocks()):
        assert a.metric_name == b.metric_name
        assert np.array_equal(a.device_ids, b.device_ids)
        assert np.array_equal(a.nyquist_rate, b.nyquist_rate)
        assert np.array_equal(a.reduction_ratio, b.reduction_ratio, equal_nan=True)
        assert np.array_equal(a.category, b.category)
    assert single.headline() == pooled.headline()

    update_bench_json("pipeline", {
        "pairs": len(single),
        "workers1_pairs_per_second": len(single) / single_seconds,
        "workers2_pairs_per_second": len(pooled) / pooled_seconds,
        "workers": 2,
        "cpu_count": os.cpu_count(),
    })
    print(f"\n=== Survey pipeline (generation + estimation, {len(single)} pairs) ===")
    print(format_table([
        {"workers": 1, "seconds": single_seconds,
         "pairs_per_second": len(single) / single_seconds},
        {"workers": 2, "seconds": pooled_seconds,
         "pairs_per_second": len(pooled) / pooled_seconds},
    ]))


def test_fleet_scale_out_of_core_survey(output_dir, tmp_path):
    """A 25k+-pair survey: worker pool + spill-to-disk, memory bounded by chunk_size."""
    dataset = FleetDataset(DatasetConfig(pair_count=FLEET_PAIRS, seed=7))
    sink = SpillingRecordSink(tmp_path / "spool")

    start = time.perf_counter()
    result = run_survey(dataset, workers=2, chunk_size=FLEET_CHUNK_SIZE, sink=sink)
    seconds = time.perf_counter() - start

    assert len(result) == FLEET_PAIRS
    # The spill path was genuinely exercised: at least one file per full chunk.
    assert len(sink.files) >= FLEET_PAIRS // FLEET_CHUNK_SIZE
    headline = result.headline()
    assert headline["pairs"] == float(FLEET_PAIRS)
    assert 0.0 <= headline["oversampled_fraction"] <= 1.0

    spill_bytes = sum(path.stat().st_size for path in sink.files)
    update_bench_json("fleet", {
        "pairs": FLEET_PAIRS,
        "seconds": seconds,
        "pairs_per_second": FLEET_PAIRS / seconds,
        "chunk_size": FLEET_CHUNK_SIZE,
        "workers": 2,
        "spill_files": len(sink.files),
        "spill_bytes": spill_bytes,
        "oversampled_fraction": headline["oversampled_fraction"],
        "cpu_count": os.cpu_count(),
    })
    print("\n=== Out-of-core fleet survey ===")
    print(format_table([{
        "pairs": FLEET_PAIRS, "seconds": seconds,
        "pairs_per_second": FLEET_PAIRS / seconds,
        "spill_files": len(sink.files), "spill_mib": spill_bytes / 2 ** 20,
    }]))


def test_measured_vs_generated_throughput(output_dir, tmp_path):
    """Recorded-telemetry path: export the fleet, re-survey from trace files.

    The measured path must reproduce the generated in-memory survey byte
    for byte (same records, same order); the benchmark records the
    export cost and both survey throughputs so regenerating-vs-reading
    stays a measured trade-off.
    """
    dataset = FleetDataset(DatasetConfig(pair_count=MEASURED_PAIRS, seed=7))
    fleet_dir = tmp_path / "measured-fleet"

    start = time.perf_counter()
    dataset.export(fleet_dir)
    export_seconds = time.perf_counter() - start
    measured = MeasuredFleetDataset(fleet_dir)
    trace_bytes = sum(path.stat().st_size for path in (fleet_dir / "traces").iterdir())

    start = time.perf_counter()
    generated = run_survey(dataset, workers=2, chunk_size=FLEET_CHUNK_SIZE)
    generated_seconds = time.perf_counter() - start

    start = time.perf_counter()
    recorded = run_survey(measured, workers=2, chunk_size=FLEET_CHUNK_SIZE)
    recorded_seconds = time.perf_counter() - start

    assert len(generated) == len(recorded) == MEASURED_PAIRS
    for a, b in zip(generated.iter_blocks(), recorded.iter_blocks()):
        assert a.metric_name == b.metric_name
        assert np.array_equal(a.device_ids, b.device_ids)
        assert np.array_equal(a.nyquist_rate, b.nyquist_rate)
        assert np.array_equal(a.reduction_ratio, b.reduction_ratio, equal_nan=True)
        assert np.array_equal(a.category, b.category)
    assert generated.headline() == recorded.headline()

    update_bench_json("measured", {
        "pairs": MEASURED_PAIRS,
        "workers": 2,
        "export_seconds": export_seconds,
        "trace_bytes": trace_bytes,
        "generated_pairs_per_second": MEASURED_PAIRS / generated_seconds,
        "measured_pairs_per_second": MEASURED_PAIRS / recorded_seconds,
        "trace_format": "rcb",
        "cpu_count": os.cpu_count(),
    })
    print(f"\n=== Measured vs generated survey ({MEASURED_PAIRS} pairs, workers=2) ===")
    print(format_table([
        {"path": "generated", "seconds": generated_seconds,
         "pairs_per_second": MEASURED_PAIRS / generated_seconds},
        {"path": "measured", "seconds": recorded_seconds,
         "pairs_per_second": MEASURED_PAIRS / recorded_seconds},
        {"path": "export", "seconds": export_seconds,
         "pairs_per_second": MEASURED_PAIRS / export_seconds},
    ]))


def test_backends_equivalent_on_default_survey():
    """CLI-default 280-pair survey: record for record, the per-trace reference."""
    dataset = FleetDataset(DatasetConfig(pair_count=280, seed=7))
    estimator = NyquistEstimator()
    batched = run_survey(dataset, estimator=estimator)
    reference = [(pair, trace, estimator.estimate(trace))
                 for metric in dataset.metric_names()
                 for pair, trace in dataset.traces(metric)]
    assert len(batched.records) == len(reference) == 280
    for record, (pair, trace, estimate) in zip(batched.records, reference):
        assert (record.metric_name, record.device_id) == pair.key
        assert record.current_rate == trace.sampling_rate
        assert record.reliable == estimate.reliable
        assert np.isclose(record.nyquist_rate, estimate.nyquist_rate)
        if estimate.reliable:
            assert np.isclose(record.reduction_ratio, estimate.reduction_ratio)
