"""End-to-end benchmark of the monitoring-cost pipelines.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 7                  # all four workloads
    python3 benchmarks/e2e/run.py --workload survey-paper --seed 7 --seconds 20
    python3 benchmarks/e2e/run.py --seed 7 --trace          # per-layer numbers

Each workload runs in its own process (``workloads.py``) as a closed
loop: one client, ``workers=1``, jobs back to back -- one untimed warm-up
job, then timed jobs until at least :data:`MIN_JOBS` are done and
``--seconds`` (at most :data:`MAX_SECONDS`) have passed.  Set-up time is
sampled in :data:`SETUP_PROBES` extra fresh processes as well and
reported as the median.  Every job's output is checked; a job that
raises or fails a check counts its pairs as failed, and a workload
process that crashes or overruns its time limit fails the workload.

Without ``--trace`` the end-to-end metrics are printed; with it, every
timed job also runs through the tracing wrappers and the per-layer
metrics are printed instead.  For each workload the output is a table of
every metric with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the whole run, with
provenance and raw per-job times, goes to a result file under
``benchmarks/e2e/results/`` that ``compare.py`` reads.  The exit code is
0 only when every job and check passed.

The program under test is imported from ``src/`` of the checkout this
file lives in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: Fresh processes that only set up and warm up, to sample set-up time.
#: With the measuring process that gives seven samples: the median of
#: three ranged over 40% between same-seed runs on the reference host.
SETUP_PROBES = 6

#: Longest ``--seconds`` accepted, so that a run stays inside its time limit.
MAX_SECONDS = 60

#: Per-process time limit beyond ``--seconds``: input generation, set-up
#: and the minimum jobs take under 40 s on the reference host even in its
#: slow phases.
CHILD_TIMEOUT_BASE_S = 90

#: Duration of the ``workloads.HostSpeed`` kernel on the uncontended
#: reference host (2-vCPU Xeon at 2.0 GHz).  Times are reported in
#: reference seconds: measured seconds x this / the kernel's time around
#: them, so the shared host's slow phases cancel out.
REFERENCE_CALIBRATION_S = 0.020

#: Minimum timed jobs per run: 25 (plain) and 10 (traced pairs).  With 25
#: samples the 60th percentile is the highest with ten samples beyond it.
MIN_JOBS = {False: 25, True: 10}

WORKLOADS = {
    "survey-paper": "the paper's survey on 806 one-day pairs; trace generation is ~94% "
                    "of a job",
    "policy-stationary": "cost-vs-quality policy survey on 168 fabric points; the "
                         "adaptive controller is ~65% of a job and mostly settles",
    "policy-flap-churn": "same fabric under flap churn; the controller never settles and "
                         "keeps probing, so its probe path dominates",
    "ingest-rerun": "re-ingest a 50k-update gNMI dump, then serve both surveys from a "
                    "warm record store; bypasses trace generation and the controller",
}


@dataclass(frozen=True)
class Metric:
    """A reported metric; ``bound`` is how far its median may worsen."""

    name: str
    unit: str
    better: str
    bound: float | None = None
    #: The bound is an absolute difference, not a share of the base median.
    absolute: bool = False


#: Timing bounds are 25%: on the shared reference host the quartile spread
#: of ten seeds reached 9% for ingest-rerun even after the host-speed
#: correction (see README.md, "Run-to-run spread").
E2E_METRICS = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("pairs_per_s", "pairs/s", "higher", 0.25),
    Metric("job_s_p50", "s", "lower", 0.25),
    Metric("job_s_p60", "s", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.1),
)

#: Checked outputs: in the result file and the table, compared by
#: ``compare.py``, reported only where the workload produces them.
QUALITY_METRICS = (
    Metric("error_rate", "fraction", "lower", 0.0, absolute=True),
    Metric("rate_log2_err_p50", "log2", "lower", 0.01),
    Metric("refusal_recall", "fraction", "higher", 0.01),
    Metric("refusal_precision", "fraction", "higher", 0.01),
    Metric("static_cost_ratio", "ratio", "lower", 0.01),
    Metric("adaptive_cost_ratio", "ratio", "lower", 0.01),
    Metric("static_nrmse", "nrmse", "lower", 0.01),
    Metric("adaptive_nrmse", "nrmse", "lower", 0.01),
)

#: Span names (layers) whose self time is reported as a share of job time.
LAYER_SHARES = (
    "telemetry.source", "telemetry.source.token", "core.nyquist",
    "pipeline.policies.fixed", "pipeline.policies.nyquist-static",
    "pipeline.policies.adaptive-dual-rate", "network.cost", "records.sinks",
    "records.store.get", "records.store.put", "telemetry.ingest",
    "telemetry.ingest.open", "telemetry.ingest.parse", "telemetry.ingest.accumulate",
    "telemetry.ingest.finish", "analysis.driver",
)
LAYER_CALLS = ("telemetry.source", "core.nyquist", "pipeline.policies.adaptive-dual-rate",
               "network.cost", "records.sinks")
LAYER_ROWS = ("telemetry.source", "core.nyquist", "pipeline.policies.adaptive-dual-rate")
INGEST_COUNTERS = ("updates", "spill_writes", "spilled_samples", "peak_buffered_samples")

PER_LAYER_METRICS = (
    *(Metric(f"{layer}.share", "fraction", "lower") for layer in LAYER_SHARES),
    *(Metric(f"{layer}.calls", "count", "lower") for layer in LAYER_CALLS),
    *(Metric(f"{layer}.rows", "count", "lower") for layer in LAYER_ROWS),
    *(Metric(f"telemetry.ingest.{name}", "count", "lower") for name in INGEST_COUNTERS),
    Metric("records.store.hit_ratio", "fraction", "higher"),
    Metric("analysis.driver.self_s", "s", "lower"),
    Metric("trace.coverage", "fraction", "higher"),
    Metric("trace.overhead", "fraction", "lower"),
    Metric("host.cpu_per_wall", "fraction", "higher"),
)


# ----------------------------------------------------------------------
# Metrics from a workload process's report
# ----------------------------------------------------------------------
def _layer_seconds(layers: dict[str, list[float]], layer: str) -> float:
    """Self seconds of ``layer``; ``telemetry.ingest`` sums its phases."""
    if layer == "telemetry.ingest":
        return sum(value[0] for name, value in layers.items()
                   if name == layer or name.startswith(layer + "."))
    return layers.get(layer, [0.0])[0]


def reference_seconds(seconds: float, calibration_s: float) -> float:
    """Measured seconds expressed at the reference host's speed."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def _per_layer(jobs: list[dict[str, Any]]) -> dict[str, float]:
    traced = [job for job in jobs if job["traced"] and "layers" in job]
    plain = {job["number"]: job for job in jobs if job["timed"] and not job["traced"]}
    wall = sum(job["wall_s"] for job in traced)
    values: dict[str, float] = {}
    for layer in LAYER_SHARES:
        values[f"{layer}.share"] = sum(_layer_seconds(job["layers"], layer)
                                       for job in traced) / wall
    for layer in LAYER_CALLS:
        values[f"{layer}.calls"] = statistics.median(
            job["layers"].get(layer, [0, 0])[1] for job in traced)
    for layer in LAYER_ROWS:
        values[f"{layer}.rows"] = statistics.median(
            job["layers"].get(layer, [0, 0, 0])[2] for job in traced)
    for name in INGEST_COUNTERS:
        values[f"telemetry.ingest.{name}"] = statistics.median(
            job.get("counters", {}).get(name, 0) for job in traced)
    hits = sum(job.get("cache_hits", 0) for job in traced)
    lookups = hits + sum(job.get("cache_misses", 0) for job in traced)
    values["records.store.hit_ratio"] = hits / lookups if lookups else 0.0
    values["analysis.driver.self_s"] = statistics.median(
        job["layers"]["analysis.driver"][0] for job in traced)
    values["trace.coverage"] = 1.0 - values["analysis.driver.share"]
    twins = sum(reference_seconds(plain[job["number"]]["wall_s"],
                                  plain[job["number"]]["cal_s"]) for job in traced)
    values["trace.overhead"] = 1.0 - twins / sum(
        reference_seconds(job["wall_s"], job["cal_s"]) for job in traced)
    timed = [job for job in jobs if job["timed"]]
    values["host.cpu_per_wall"] = (sum(job["cpu_s"] for job in timed)
                                   / sum(job["wall_s"] for job in timed))
    return values


def _end_to_end(report: dict[str, Any], setup_samples: list[float]) -> dict[str, float]:
    timed = [job for job in report["jobs"] if job["timed"] and not job["traced"]]
    walls = [reference_seconds(job["wall_s"], job["cal_s"]) for job in timed]
    completed = sum(job["pairs"] for job in timed if not job.get("failures"))
    return {
        "setup_s": statistics.median(setup_samples),
        "pairs_per_s": completed / sum(walls),
        "job_s_p50": statistics.median(walls),
        "job_s_p60": (statistics.quantiles(walls, n=10, method="inclusive")[5]
                      if len(walls) > 1 else walls[0]),
        "peak_rss_mib": report["peak_rss_mib"],
    }


def summarise(report: dict[str, Any], setup_samples: list[float],
              trace: bool) -> dict[str, Any]:
    """Turn a workload process's report into counts and named metrics.

    Returns ``correct``, ``attempted`` and ``failed`` (in pairs),
    ``metrics`` (the end-to-end metrics, or the per-layer metrics when
    ``trace``) and ``checked`` (error rate and quality metrics).
    """
    jobs = report["jobs"]
    attempted = sum(job["pairs"] for job in jobs)
    failed_numbers = {(job["number"], job["traced"]) for job in jobs if job.get("failures")}
    if report["run_failures"]:  # a run-level check fails every job it pooled
        failed_numbers |= {(number, False) for number in report["quality_jobs"]}
    failed = sum(job["pairs"] for job in jobs
                 if (job["number"], job["traced"]) in failed_numbers)
    values = _per_layer(jobs) if trace else _end_to_end(report, setup_samples)
    table = PER_LAYER_METRICS if trace else E2E_METRICS
    checked = {"error_rate": failed / attempted, **report["quality"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric.name: {"value": values[metric.name], "unit": metric.unit}
                    for metric in table},
        "checked": {metric.name: {"value": checked[metric.name], "unit": metric.unit}
                    for metric in QUALITY_METRICS if metric.name in checked},
    }


# ----------------------------------------------------------------------
# Running workload processes
# ----------------------------------------------------------------------
class WorkloadFailed(RuntimeError):
    """A workload process crashed or overran its time limit."""


def child_timeout(seconds: float) -> float:
    """Time limit of one workload process measuring for ``seconds``."""
    return CHILD_TIMEOUT_BASE_S + seconds


def _child(workload: str, seed: int, seconds: float, trace: bool,
           probe: bool, tag: str) -> tuple[float, dict[str, Any]]:
    """Run one workload process; returns its spawn time and its report."""
    work_dir = WORK / f"{workload}-{os.getpid()}-{tag}"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--jobs", str(MIN_JOBS[trace]),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--work-dir", str(work_dir)]
    if probe:
        command.append("--probe")
    if trace:
        command += ["--spans", str(RESULTS / f"spans-{workload}.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    timeout = child_timeout(seconds)
    spawned = time.monotonic()
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                   text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as error:  # run() has killed and reaped it
        raise WorkloadFailed(f"{workload} process overran its {timeout:g} s limit "
                             "and was killed") from error
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise WorkloadFailed(f"{workload} process exited with code {completed.returncode}")
    return spawned, json.loads(lines[-1])


def _setup_seconds(spawned: float, report: dict[str, Any]) -> float:
    """Spawn to first timed job, minus the benchmark's own input generation."""
    return reference_seconds(report["ready"] - spawned - report["inputs_s"],
                             report["setup_cal_s"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set-up probes plus the measuring process of one workload."""
    load_before = os.getloadavg()
    setup_samples = []
    for probe in range(0 if trace else SETUP_PROBES):
        spawned, report = _child(workload, seed, seconds, trace, True, f"p{probe}")
        setup_samples.append(_setup_seconds(spawned, report))
    spawned, report = _child(workload, seed, seconds, trace, False, "run")
    setup_samples.append(_setup_seconds(spawned, report))
    summary = summarise(report, setup_samples, trace)
    host_speed = statistics.median(REFERENCE_CALIBRATION_S / job["cal_s"]
                                   for job in report["jobs"] if job["timed"])
    return {**summary, "setup_samples_s": setup_samples, "host_speed": host_speed,
            "run_failures": report["run_failures"], "load_before": load_before,
            "load_after": os.getloadavg(), "jobs": report["jobs"]}


def _git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    return next((line.split()[0] for line in packed if line.endswith(" " + ref)), None)


def provenance(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "commit": _git_commit(), "seed": args.seed, "jobs": MIN_JOBS[bool(args.trace)],
        "seconds": args.seconds, "trace": bool(args.trace),
        "setup_probes": 0 if args.trace else SETUP_PROBES,
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "argv": sys.argv[1:],
    }


def _print_workload(name: str, result: dict[str, Any], jobs: int) -> None:
    """The metric table, failures and JSON line of one workload."""
    timed = sum(1 for job in result["jobs"] if job["timed"] and not job["traced"])
    load = " -> ".join(f"{value[0]:.2f}" for value in (result["load_before"],
                                                       result["load_after"]))
    print(f"{name}: {timed} timed jobs after 1 warm-up (quality over the first {jobs}), "
          f"host speed {result['host_speed']:.2f} of reference, load {load}")
    for label, metrics in (("", result["metrics"]), ("checked ", result["checked"])):
        for metric, entry in metrics.items():
            print(f"  {label}{metric:<42} {entry['value']:>14.6g} {entry['unit']}")
    for failure in result["run_failures"] + [failure for job in result["jobs"]
                                             for failure in job.get("failures", [])]:
        print(f"  FAILED: {failure}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: closed-loop workloads over the monitoring "
                    "pipelines, with outside-in per-layer tracing.")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help=f"measure at least this long per workload (default 20, "
                             f"at most {MAX_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", type=Path, help="result file (default: under results/)")
    args = parser.parse_args(argv)
    if not 0 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be between 0 and {MAX_SECONDS}")
    # Unwind on SIGTERM so subprocess.run kills and reaps the running workload.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'} not found)",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    RESULTS.mkdir(parents=True, exist_ok=True)
    result: dict[str, Any] = {"format": "repro-e2e-result/1",
                              "provenance": provenance(args), "workloads": {}}
    crashed: list[str] = []
    for name in args.workload or list(WORKLOADS):
        try:
            outcome = run_workload(name, args.seed, args.seconds, trace)
        except WorkloadFailed as error:
            print(f"error: {error}", file=sys.stderr)
            crashed.append(name)
            continue
        outcome["metric_defs"] = {metric.name: asdict(metric) for metric in
                                  (*(PER_LAYER_METRICS if trace else E2E_METRICS),
                                   *QUALITY_METRICS)}
        result["workloads"][name] = outcome
        _print_workload(name, outcome, MIN_JOBS[trace])
    out = args.out or RESULTS / (f"e2e-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
                                 f"-seed{args.seed}{'-trace' if trace else ''}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    with contextlib.suppress(OSError):  # still in use by a concurrent run
        WORK.rmdir()
    print(f"result file: {out}", file=sys.stderr)
    if crashed:
        return 1
    return 0 if all(entry["correct"] for entry in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
