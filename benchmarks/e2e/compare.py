"""Compare two sets of end-to-end benchmark result files.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py SET_A SET_B

``SET_A`` is the base (the parent commit) and ``SET_B`` the change.  Each
set is a result file written by ``run.py`` or a quoted glob pattern
naming several.  Run both sets with the same seed and settings,
alternating A and B runs; the tool refuses sets that differ in seed,
minimum job count, ``--seconds``, tracing, workloads or metric names.

For every (workload, metric) it prints each set's median and quartiles
and a verdict:

* ``worse`` -- B's median is worse than A's by more than the metric's
  bound (a share of A's median, or an absolute difference);
* ``better`` -- B won at least nine tenths of the (A, B) run pairs, taken
  in file order, and the medians differ by more than A's quartile
  spread;
* ``unresolved`` -- a set's quartile spread is wider than the bound, and
  not every B run beats every A run;
* ``within-bound`` -- none of the above;
* ``info`` -- the metric has no bound (per-layer metrics).

It also counts jobs whose CPU time was under 0.9 of their wall time, a
sign that another process held the CPU.  The exit code is 1 when any
verdict is ``worse``, 2 when the sets cannot be compared, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import statistics
import sys
from pathlib import Path
from typing import Any

#: Jobs below this CPU / wall ratio ran on a contended host.
CONTENTION_CPU_PER_WALL = 0.9

#: Provenance fields both sets must agree on: the command-line settings,
#: and ``jobs`` (``run.MIN_JOBS``), which sets how many jobs the quality
#: metrics pool and so may differ between commits.
SETTINGS = ("seed", "jobs", "seconds", "trace")


class Incomparable(ValueError):
    """The two sets were not measured the same way."""


def expand(spec: str) -> list[Path]:
    """Result files named by a set argument: a file or a glob pattern."""
    paths = [Path(match) for match in sorted(glob.glob(spec))]
    if not paths:
        raise Incomparable(f"no result files match {spec!r}")
    return paths


def load_set(paths: list[Path]) -> list[dict[str, Any]]:
    results = []
    for path in paths:
        try:
            result = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise Incomparable(f"cannot read result file {path}: {error}") from error
        if result.get("format") != "repro-e2e-result/1":
            raise Incomparable(f"{path} is not an end-to-end benchmark result file")
        results.append(result)
    return results


def _signature(result: dict[str, Any]) -> tuple:
    settings = tuple(result["provenance"][key] for key in SETTINGS)
    metrics = tuple((name, tuple(sorted(entry["metrics"]) + sorted(entry["checked"])))
                    for name, entry in sorted(result["workloads"].items()))
    return settings, metrics


def check_comparable(set_a: list[dict[str, Any]], set_b: list[dict[str, Any]]) -> None:
    """Raise :class:`Incomparable` unless every file was measured alike."""
    reference = _signature(set_a[0])
    for result in set_a + set_b:
        settings, metrics = _signature(result)
        if settings != reference[0]:
            raise Incomparable(
                "result files differ in " + ", ".join(
                    f"{key} ({a!r} vs {b!r})"
                    for key, a, b in zip(SETTINGS, reference[0], settings) if a != b))
        if metrics != reference[1]:
            raise Incomparable("result files differ in their workloads or metric names")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None, absolute: bool = False) -> str:
    """The verdict for one metric; see the module docstring."""
    if bound is None:
        return "info"
    sign = 1.0 if better == "lower" else -1.0
    q1a, median_a, q3a = quartiles(base)
    q1b, median_b, q3b = quartiles(change)
    scale = 1.0 if absolute or median_a == 0 else abs(median_a)
    worsening = sign * (median_b - median_a) / scale
    spread_a = (q3a - q1a) / scale
    spread = max(spread_a, (q3b - q1b) / scale)
    if spread > bound:
        beats_all = all(sign * (b - a) < 0 for a in base for b in change)
        return "better" if beats_all else "unresolved"
    if worsening > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if -worsening > spread_a and wins >= 0.9 * len(pairs):
        return "better"
    return "within-bound"


def contended(results: list[dict[str, Any]], workload: str) -> tuple[int, int]:
    """(contended jobs, timed jobs) of one workload across a set."""
    jobs = [job for result in results for job in result["workloads"][workload]["jobs"]
            if job["timed"]]
    low = sum(1 for job in jobs
              if job["cpu_s"] < CONTENTION_CPU_PER_WALL * job["wall_s"])
    return low, len(jobs)


def _values(results: list[dict[str, Any]], workload: str, metric: str) -> list[float]:
    values = []
    for result in results:
        entry = result["workloads"][workload]
        values.append({**entry["metrics"], **entry["checked"]}[metric]["value"])
    return values


def compare(set_a: list[dict[str, Any]], set_b: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One row per (workload, metric) with both sets' quartiles and a verdict."""
    check_comparable(set_a, set_b)
    rows = []
    for workload, entry in set_a[0]["workloads"].items():
        for metric in [*entry["metrics"], *entry["checked"]]:
            a = _values(set_a, workload, metric)
            b = _values(set_b, workload, metric)
            definition = entry["metric_defs"][metric]
            rows.append({
                "workload": workload, "metric": metric, "unit": definition["unit"],
                "a": quartiles(a), "b": quartiles(b),
                "verdict": verdict(a, b, definition["better"], definition["bound"],
                                   definition["absolute"]),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of end-to-end benchmark result files.")
    parser.add_argument("set_a", help="base set: a result file or a quoted glob")
    parser.add_argument("set_b", help="changed set, same form")
    args = parser.parse_args(argv)
    try:
        set_a = load_set(expand(args.set_a))
        set_b = load_set(expand(args.set_b))
        rows = compare(set_a, set_b)
    except Incomparable as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"A: {len(set_a)} run(s), B: {len(set_b)} run(s); values are median "
          "[first quartile, third quartile]")
    for workload in set_a[0]["workloads"]:
        low_a, all_a = contended(set_a, workload)
        low_b, all_b = contended(set_b, workload)
        print(f"{workload}: CPU/wall < {CONTENTION_CPU_PER_WALL} in {low_a}/{all_a} A jobs, "
              f"{low_b}/{all_b} B jobs")
        for row in rows:
            if row["workload"] != workload:
                continue
            a_q1, a_median, a_q3 = row["a"]
            b_q1, b_median, b_q3 = row["b"]
            change = f"{(b_median - a_median) / abs(a_median):+.1%}" if a_median else "n/a"
            print(f"  {row['metric']:<42} A {a_median:.6g} [{a_q1:.6g}, {a_q3:.6g}]  "
                  f"B {b_median:.6g} [{b_q1:.6g}, {b_q3:.6g}] {row['unit']}  "
                  f"{change}  {row['verdict']}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(worse)} worse, {len(unresolved)} unresolved of {len(rows)} metrics")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
