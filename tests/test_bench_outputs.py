"""Committed bench results must describe what the benches write today.

A ``trace_format`` recorded in a ``benchmarks/output/BENCH_*.json`` file
names the on-disk trace format its figures were measured on; a value the
library no longer writes marks a stale section that needs regenerating.
``BENCH_survey.json`` carries the trace-generation section next to the
engine's, with the host's ``cpu_count``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.telemetry.measured import TRACE_FORMATS
from repro.telemetry.metrics import MetricFamily

OUTPUT_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "output"

BENCH_FILES = sorted(OUTPUT_DIR.glob("BENCH_*.json"))


def _trace_formats(node: Any) -> Iterator[str]:
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "trace_format":
                yield value
            else:
                yield from _trace_formats(value)
    elif isinstance(node, list):
        for item in node:
            yield from _trace_formats(item)


def test_every_recorded_trace_format_is_current():
    found = {path.name: list(_trace_formats(json.loads(path.read_text())))
             for path in BENCH_FILES}
    assert any(found.values()), "no BENCH_*.json records a trace_format"
    stale = {name: formats for name, formats in found.items()
             if any(fmt not in TRACE_FORMATS for fmt in formats)}
    assert not stale, f"trace formats the library no longer writes: {stale}"


def test_survey_bench_records_generation_throughput():
    source = json.loads((OUTPUT_DIR / "BENCH_survey.json").read_text())["source"]
    assert source["cpu_count"] >= 1
    assert source["pairs_per_second"] > 0
    assert set(source["families"]) == {family.value for family in MetricFamily}
