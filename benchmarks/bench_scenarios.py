"""Scenario matrix: where the paper's cost ordering holds, and where it inverts.

The headline table claims fixed > nyquist-static > adaptive-dual-rate
total cost at bounded error.  This bench maps that claim across the
(scenario x fabric) grid from :mod:`repro.scenarios.presets` -- regime
shifts, calibration storms, flapping churn, counter pathologies and
blackouts, each hop-priced on leaf-spine, fat-tree and WAN-ring fabrics
-- and records every cell's verdict in ``BENCH_scenarios.json`` (uploaded
by CI alongside the other trajectory files):

* **cells** -- per-cell ordering verdict, relative/total costs,
  mean/worst nrmse, and for shifted scenarios the adaptive controller's
  *measured* re-probe/re-settle latency plus its rate trajectory;
* **summary** -- matrix shape, which cells inverted, and matrix
  throughput in cells/second.

The bench asserts the matrix's two load-bearing rows: the stationary
leaf-spine cell must reproduce the paper ordering, and every flap-churn
cell must invert the adaptive leg (direction asserted, not magnitude).

The full 7x3 matrix takes a few seconds; CI runs it and compares every
cell with the committed ``BENCH_scenarios.json``.  The trace length is
``REPRO_BENCH_SCENARIO_HOURS`` (default 12).
"""

from __future__ import annotations

import os
import time

from repro.analysis.reporting import format_table, write_csv
from repro.scenarios import run_matrix
from repro.scenarios.matrix import ADAPTIVE, NYQUIST_STATIC
from repro.scenarios.presets import default_fabrics, default_scenarios, paper_suite

from conftest import BENCH_SCENARIOS_JSON, update_bench_json

#: Reference trace length in hours.
SCENARIO_HOURS = float(os.environ.get("REPRO_BENCH_SCENARIO_HOURS", "12"))


def test_scenario_matrix(output_dir):
    """Every (scenario x fabric) cell surveyed, verdicts recorded and pinned."""
    scenarios = default_scenarios()
    fabrics = default_fabrics(hours=SCENARIO_HOURS)
    suite = paper_suite()

    start = time.perf_counter()
    result = run_matrix(scenarios, fabrics, suite)
    seconds = time.perf_counter() - start

    rows = []
    for cell in result.cells:
        rows.append({
            "scenario": cell.scenario,
            "fabric": cell.fabric,
            "points": cell.points,
            "holds": cell.holds_paper_ordering,
            "nyquist_vs_fixed": cell.relative_costs[NYQUIST_STATIC],
            "adaptive_vs_fixed": cell.relative_costs[ADAPTIVE],
            "reprobe_latency_s": cell.reprobe_latency_s,
            "verdict": cell.verdict,
        })
    write_csv(output_dir / "scenario_matrix.csv", rows)
    print(f"\n=== Scenario matrix ({len(scenarios)} scenarios x "
          f"{len(fabrics)} fabrics, {seconds:.1f}s) ===")
    print(format_table(rows))

    # The two rows the matrix exists to separate.  Stationary leaf-spine
    # is the paper's own operating point: the ordering must hold.
    stationary = result.cell("stationary", "leaf-spine")
    assert stationary.holds_paper_ordering, stationary.verdict
    assert stationary.relative_costs[NYQUIST_STATIC] < 1.0
    assert stationary.relative_costs[ADAPTIVE] < stationary.relative_costs[NYQUIST_STATIC]
    # Flap-churn is the documented inversion: recurring regime churn from
    # inside the controller's first window defeats adaptive settling on
    # every fabric.  Direction is asserted, never magnitude.
    for fabric_name in fabrics:
        churn = result.cell("flap-churn", fabric_name)
        assert not churn.holds_paper_ordering, churn.verdict
        assert churn.relative_costs[ADAPTIVE] >= churn.relative_costs[NYQUIST_STATIC]
    # Every shifted scenario records a measured (or explicitly
    # unmeasurable) reaction; the incident row must actually measure one.
    incident = result.cell("incident", "leaf-spine")
    assert incident.shift_time_s is not None
    assert incident.reprobe_latency_s is not None
    assert incident.reprobe_latency_s > 0.0

    update_bench_json("cells", result.to_payload(), path=BENCH_SCENARIOS_JSON)
    update_bench_json("summary", {
        "scenarios": [scenario.name for scenario in scenarios],
        "fabrics": list(fabrics),
        "cells": len(result.cells),
        "inversions": [cell.key for cell in result.inversions()],
        "seconds": seconds,
        "cells_per_second": len(result.cells) / seconds,
    }, path=BENCH_SCENARIOS_JSON)
