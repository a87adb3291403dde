"""Record store: warm reruns must beat cold runs by a wide margin.

The store exists so fleet-scale reruns (new code, same data) cost disk
reads instead of trace generation + FFTs.  This benchmark pins that
contract on a 25k+-pair survey (size via ``REPRO_BENCH_STORE_PAIRS``;
CI smoke uses a small fleet): ``run_survey(store=...)`` runs twice
against the same store directory, and the warm run must be 100 % cache
hits, byte-identical to the cold run, and at least
``REPRO_BENCH_STORE_MIN_SPEEDUP``x faster (default 5).

Results, with the host's ``cpu_count``, are recorded in
``benchmarks/output/BENCH_store.json`` and uploaded by the CI
``store-smoke`` job.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.survey import run_survey
from repro.records import RecordStore
from repro.telemetry.dataset import DatasetConfig, FleetDataset

from conftest import BENCH_STORE_JSON, update_bench_json

#: Fleet size for the cold/warm comparison.
STORE_PAIRS = int(os.environ.get("REPRO_BENCH_STORE_PAIRS", "25200"))

#: Required speed-up of a fully-warm rerun over the cold run.
REQUIRED_SPEEDUP = float(os.environ.get("REPRO_BENCH_STORE_MIN_SPEEDUP", "5"))

#: Chunk/cache granularity (matches the out-of-core survey benches).
CHUNK_SIZE = 512


def _block_payloads(blocks) -> list:
    return [(type(block).__name__, block.metric_name,
             tuple(np.asarray(getattr(block, spec.name)).tobytes()
                   for spec in type(block)._SCHEMA.columns))
            for block in blocks]


def test_warm_rerun_speedup(tmp_path):
    dataset = FleetDataset(DatasetConfig(pair_count=STORE_PAIRS, seed=7))
    store_dir = tmp_path / "store"

    start = time.perf_counter()
    cold = run_survey(dataset, store=RecordStore(store_dir), chunk_size=CHUNK_SIZE)
    cold_seconds = time.perf_counter() - start
    assert (cold.cache_hits, cold.cache_misses) == (0, STORE_PAIRS)

    # A fresh dataset object: nothing warm but the store itself.
    start = time.perf_counter()
    warm = run_survey(FleetDataset(DatasetConfig(pair_count=STORE_PAIRS, seed=7)),
                      store=RecordStore(store_dir), chunk_size=CHUNK_SIZE)
    warm_seconds = time.perf_counter() - start
    assert (warm.cache_hits, warm.cache_misses) == (STORE_PAIRS, 0)
    assert _block_payloads(warm.iter_blocks()) == _block_payloads(cold.iter_blocks())

    speedup = cold_seconds / warm_seconds
    update_bench_json("cold_vs_warm", {
        "pairs": STORE_PAIRS,
        "chunk_size": CHUNK_SIZE,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_pairs_per_second": STORE_PAIRS / cold_seconds,
        "warm_pairs_per_second": STORE_PAIRS / warm_seconds,
        "speedup": speedup,
        "cpu_count": os.cpu_count() or 1,
    }, path=BENCH_STORE_JSON)
    print(f"\n=== Record store cold vs warm ({STORE_PAIRS} pairs) ===")
    print(format_table([
        {"run": "cold", "seconds": cold_seconds,
         "pairs_per_second": STORE_PAIRS / cold_seconds},
        {"run": "warm", "seconds": warm_seconds,
         "pairs_per_second": STORE_PAIRS / warm_seconds},
        {"run": "speedup", "seconds": speedup, "pairs_per_second": float("nan")},
    ]))
    assert speedup >= REQUIRED_SPEEDUP, \
        f"warm rerun only {speedup:.1f}x faster (need >= {REQUIRED_SPEEDUP}x)"

