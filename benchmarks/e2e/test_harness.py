"""Tests of the end-to-end benchmark harness (collected by the tier-1 suite).

They cover the span arithmetic, the metric tables against
``BENCHMARK.json``, the compare tool's verdicts, the refusal to run
without the program under test, and the transparency of the tracing
wrappers on every workload.  Repro-lint and ruff cleanliness of these
files is covered by the repository-wide lint test and CI job.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

import compare
import run
import workloads
from tracing import DRIVER, Span, Tracer, job_layers, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _span(id: int, parent: int | None, start: float, end: float,
          name: str = "layer") -> Span:
    return Span(id, parent, 0, name, start, end)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans() -> None:
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 1, 2.0, 3.0)]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_of_back_to_back_siblings() -> None:
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 3.0, 6.0)]
    assert self_times(spans)[0] == 5.0


def test_self_time_of_zero_length_and_overhanging_children() -> None:
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 2.0),
             _span(2, 0, 8.0, 12.0), _span(3, 0, 8.5, 9.0)]
    own = self_times(spans)
    assert own[1] == 0.0
    assert own[0] == 8.0  # the child past the parent's end is clipped


def test_loop_rolls_up_next_calls_under_the_loop_span() -> None:
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    job = tracer.begin_job(1)
    consumed = list(tracer.loop("loop", "item", iter("abc")))
    spans = tracer.end_job(job)
    assert consumed == ["a", "b", "c"]
    layers = job_layers(spans)
    assert layers["item"][1] == 4 and layers["loop"][2] == 3
    loop = next(span for span in spans if span.name == "loop")
    assert layers["loop"][0] + layers["item"][0] == pytest.approx(loop.duration)
    assert layers[DRIVER][0] + loop.duration == pytest.approx(job.duration)


def test_phased_span_splits_around_its_child() -> None:
    spans = [_span(0, None, 0.0, 10.0, DRIVER),
             _span(1, 0, 1.0, 9.0, "telemetry.ingest"),
             _span(2, 1, 2.0, 7.0, "telemetry.ingest.accumulate")]
    layers = job_layers(spans)
    assert layers["telemetry.ingest.open"][0] == 1.0
    assert layers["telemetry.ingest.finish"][0] == 2.0
    assert layers["telemetry.ingest"][0] == 0.0
    assert layers[DRIVER][0] == 2.0


# ----------------------------------------------------------------------
# Metric tables
# ----------------------------------------------------------------------
def test_metric_names_are_well_formed_and_bounded() -> None:
    names = [metric.name for metric in
             (*run.E2E_METRICS, *run.QUALITY_METRICS, *run.PER_LAYER_METRICS)]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert len(run.E2E_METRICS) <= 16 and len(run.PER_LAYER_METRICS) <= 128
    assert all(metric.bound is not None and 0 < metric.bound <= 0.25
               for metric in run.E2E_METRICS)


def test_benchmark_json_matches_the_emitted_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": metric.name, "unit": metric.unit, "better": metric.better,
         "bound": metric.bound} for metric in run.E2E_METRICS]
    assert spec["per_layer"] == [
        {"name": metric.name, "unit": metric.unit, "better": metric.better}
        for metric in run.PER_LAYER_METRICS]
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def _fake_report(trace: bool) -> dict[str, Any]:
    layers = {name: [0.01, 2, 5] for name in run.LAYER_SHARES}
    jobs = [{"number": number, "seed": number, "wall_s": 1.0 + number / 10, "cpu_s": 1.0,
             "cal_s": 0.02, "pairs": 10, "traced": False, "timed": number > 0,
             "failures": []}
            for number in range(4)]
    if trace:
        jobs += [{**job, "traced": True, "layers": layers} for job in jobs if job["timed"]]
    return {"jobs": jobs, "quality": {}, "run_failures": [], "quality_jobs": [1, 2, 3],
            "peak_rss_mib": 80.0}


@pytest.mark.parametrize("trace", [False, True])
def test_summary_emits_exactly_the_declared_metrics(trace: bool) -> None:
    summary = run.summarise(_fake_report(trace), [1.0, 1.2, 1.1], trace)
    table = run.PER_LAYER_METRICS if trace else run.E2E_METRICS
    assert list(summary["metrics"]) == [metric.name for metric in table]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["checked"]["error_rate"]["value"] == 0.0


def test_failed_job_and_run_check_count_against_attempted() -> None:
    report = _fake_report(False)
    report["jobs"][2]["failures"] = ["boom"]
    summary = run.summarise(report, [1.0], False)
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (40, 10, False)
    report["run_failures"] = ["ordering"]
    assert run.summarise(report, [1.0], False)["failed"] == 30


# ----------------------------------------------------------------------
# Compare tool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("change, expected", [
    ([1.20, 1.21, 1.19], "worse"),
    ([0.80, 0.81, 0.79], "better"),
    ([1.02, 1.00, 1.01], "within-bound"),
    ([0.50, 1.60, 1.00], "unresolved"),
])
def test_compare_verdicts(change: list[float], expected: str) -> None:
    assert compare.verdict([1.0, 1.01, 0.99], change, "lower", 0.1) == expected


def test_compare_absolute_zero_bound_flags_any_increase() -> None:
    assert compare.verdict([0.0, 0.0], [0.01, 0.01], "lower", 0.0, True) == "worse"
    assert compare.verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.0, True) == "within-bound"


def test_compare_refuses_sets_with_different_seeds() -> None:
    def result(seed: int) -> dict[str, Any]:
        return {"provenance": {"seed": seed, "jobs": 25, "seconds": 20.0, "trace": False},
                "workloads": {"survey-paper": {"metrics": {"setup_s": {}}, "checked": {}}}}
    compare.check_comparable([result(1)], [result(1)])
    with pytest.raises(compare.Incomparable, match="seed"):
        compare.check_comparable([result(1)], [result(2)])


def test_compare_expands_a_glob_in_name_order(tmp_path: Path) -> None:
    for name in ("b.json", "a.json", "c.txt"):
        (tmp_path / name).write_text("{}")
    assert compare.expand(str(tmp_path / "*.json")) == [tmp_path / "a.json",
                                                        tmp_path / "b.json"]
    with pytest.raises(compare.Incomparable, match="no result files"):
        compare.expand(str(tmp_path / "missing-*.json"))


# ----------------------------------------------------------------------
# Running the benchmark
# ----------------------------------------------------------------------
def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        shutil.copy(source, target)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "survey-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60, check=False)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_rejects_a_run_length_its_time_limit_cannot_fit() -> None:
    with pytest.raises(SystemExit) as raised:
        run.main(["--seed", "1", "--seconds", str(run.MAX_SECONDS + 1)])
    assert raised.value.code == 2
    assert run.child_timeout(run.MAX_SECONDS) < 180


def test_overrunning_workload_is_reported_as_failed(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
        capsys: pytest.CaptureFixture[str]) -> None:
    monkeypatch.setattr(run, "child_timeout", lambda seconds: 0.2)
    monkeypatch.setattr(run.signal, "signal", lambda signum, handler: None)
    out = tmp_path / "result.json"
    code = run.main(["--workload", "survey-paper", "--seed", "1", "--seconds", "0",
                     "--out", str(out)])
    assert code == 1
    assert "overran" in capsys.readouterr().err
    assert json.loads(out.read_text())["workloads"] == {}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_is_transparent(name: str, tmp_path: Path) -> None:
    report = workloads.measure(workloads.WORKLOADS[name](), seed=5, jobs=1, seconds=0.0,
                               trace=True, probe=False, work_dir=tmp_path,
                               spans_path=tmp_path / "spans.jsonl")
    plain, traced = [job for job in report["jobs"] if job["timed"]]
    assert not plain["failures"] and not traced["failures"] and not report["run_failures"]
    assert traced["traced"] and traced["digest"] == plain["digest"]
    recorded = {json.loads(line)["name"]
                for line in (tmp_path / "spans.jsonl").read_text().splitlines()}
    assert recorded <= set(run.LAYER_SHARES) | {"telemetry.ingest.accumulate"}
