"""The four closed-loop workloads of the end-to-end benchmark.

``run.py`` runs each workload in its own process through this module's
command line.  One client issues jobs back to back (``workers=1``
everywhere, so no process pool starts): one untimed warm-up job, then
timed jobs until at least ``--jobs`` have finished and ``--seconds``
have passed.  Job ``j`` of a run with seed ``S`` uses seed ``S + j``
(the warm-up is ``j = 0``); ``ingest-rerun`` re-ingests one dump made
from seed ``S``.

With ``--trace 1`` every timed job runs twice on the same seed, first
plain and then through the :mod:`tracing` wrappers.  The pair must agree
on record digests, store hits and misses and quality numbers (the
wrappers are transparent), and the plain twin is the base of the
tracing overhead.

The last line on standard output is a JSON report: set-up timestamps,
one record per job (wall and CPU seconds, pairs, digest, failures and,
for traced jobs, per-layer totals) and the run's quality numbers.
``--probe`` stops after the warm-up, which is how ``run.py`` samples
set-up time in fresh processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.analysis import run_policy_survey, run_survey
from repro.core.nyquist import NyquistEstimator
from repro.network import DeploymentSpec, TelemetryCostAccountant, TopologySpec
from repro.records import MemoryRecordSink, RecordStore
from repro.scenarios import default_scenarios, presets
from repro.telemetry import DatasetConfig, FleetDataset, ingest_dump, open_export

from tracing import (TracedAccountant, TracedDump, TracedEstimator, TracedSink,
                     TracedSource, TracedStore, TracedSuite, Tracer, job_layers)

#: The paper suite's policies, most expensive first in the paper's ordering.
POLICIES = ("fixed", "nyquist-static", "adaptive-dual-rate")

#: Leaf-spine fabric of the policy workloads: 10 switches x 12 metrics plus
#: 16 servers x 3 metrics = 168 measurement points.
POLICY_FABRIC = TopologySpec(num_spines=2, num_leaves=8, servers_per_leaf=2)


def _digest_blocks(hasher: Any, blocks: Iterable[Any]) -> None:
    """Fold columnar record blocks into ``hasher``, field by field."""
    for block in blocks:
        hasher.update(type(block).__name__.encode())
        for spec in fields(block):
            value = getattr(block, spec.name)
            if isinstance(value, np.ndarray):
                array = np.ascontiguousarray(value)
                hasher.update(f"{spec.name}:{array.dtype.str}:{array.shape}".encode())
                hasher.update(array.tobytes())
            else:
                hasher.update(f"{spec.name}={value!r}".encode())


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@dataclass
class Observation:
    """What one job produced, reduced to what the report and checks need."""

    digest: str
    cache_hits: int = 0
    cache_misses: int = 0
    failures: list[str] = field(default_factory=list)
    #: Per-job quality summary: compared between traced and plain twins.
    summary: dict[str, float] = field(default_factory=dict)
    #: Ingest accumulator counters (``IngestStats``).
    counters: dict[str, int] = field(default_factory=dict)
    #: Raw quality ingredients, pooled over the run's first jobs.
    survey: dict[str, Any] = field(default_factory=dict)
    policy: dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Output checks and quality ingredients shared by the workloads
# ----------------------------------------------------------------------
def observe_survey(result: Any, truth: dict[tuple[str, str], tuple[float, bool]],
                   pairs: int, failures: list[str]) -> dict[str, Any]:
    """Check a survey result and extract its estimator-quality ingredients.

    ``truth`` maps each pair to its generator's Nyquist rate and whether
    it was planted broadband.  Returns the |log2(estimate / truth)|
    errors of reliable non-broadband pairs and the refusal counts.
    """
    if len(result) != pairs:
        failures.append(f"survey returned {len(result)} records, expected {pairs}")
    errors: list[np.ndarray] = []
    planted = refused = refused_planted = 0
    for block in result.iter_blocks():
        keys = [(block.metric_name, str(device)) for device in block.device_ids]
        true_rate = np.array([truth[key][0] for key in keys])
        broadband = np.array([truth[key][1] for key in keys], dtype=bool)
        reliable = np.asarray(block.reliable, dtype=bool)
        estimate = np.asarray(block.nyquist_rate)
        if not np.all(np.isfinite(estimate[reliable]) & (estimate[reliable] > 0)):
            failures.append(f"{block.metric_name}: reliable pair with a non-finite "
                            "or non-positive Nyquist estimate")
        usable = reliable & ~broadband & (true_rate > 0) & (estimate > 0)
        errors.append(np.abs(np.log2(estimate[usable] / true_rate[usable])))
        planted += int(broadband.sum())
        refused += int((~reliable).sum())
        refused_planted += int((~reliable & broadband).sum())
    return {"log2_errors": np.concatenate(errors) if errors else np.array([]),
            "planted": planted, "refused": refused, "refused_planted": refused_planted}


def survey_quality(parts: list[dict[str, Any]]) -> dict[str, float]:
    """Pool per-job survey ingredients into the estimator-quality metrics."""
    errors = np.concatenate([part["log2_errors"] for part in parts])
    planted = sum(part["planted"] for part in parts)
    refused = sum(part["refused"] for part in parts)
    hits = sum(part["refused_planted"] for part in parts)
    return {"rate_log2_err_p50": float(np.median(errors)) if errors.size else math.nan,
            "refusal_recall": hits / planted if planted else math.nan,
            "refusal_precision": hits / refused if refused else math.nan}


def observe_policy(result: Any, points: int, failures: list[str]) -> dict[str, Any]:
    """Check a policy-survey result and extract per-policy cost and nrmse sums."""
    if len(result) != points * len(POLICIES):
        failures.append(f"policy survey returned {len(result)} rows, expected "
                        f"{points} points x {len(POLICIES)} policies")
    rows = {str(row["policy"]): row for row in result.rows()}
    totals: dict[str, tuple[float, float, int]] = {}
    for policy in POLICIES:
        if policy not in rows:
            failures.append(f"policy {policy!r} missing from the policy survey")
            continue
        cost = float(rows[policy]["total_cost"])
        if not (math.isfinite(cost) and cost > 0):
            failures.append(f"policy {policy!r} has total cost {cost!r}")
        nrmse = result.nrmse_values(policy)
        totals[policy] = (cost, float(nrmse.sum()), int(nrmse.size))
    return totals


def policy_quality(parts: list[dict[str, Any]]) -> dict[str, float]:
    """Pool per-job policy sums into cost ratios (vs fixed) and mean nrmse."""
    def total(policy: str, index: int) -> float:
        return sum(part[policy][index] for part in parts if policy in part)

    fixed = total("fixed", 0)
    quality = {}
    for label, policy in (("static", "nyquist-static"), ("adaptive", "adaptive-dual-rate")):
        count = total(policy, 2)
        quality[f"{label}_cost_ratio"] = total(policy, 0) / fixed if fixed else math.nan
        quality[f"{label}_nrmse"] = total(policy, 1) / count if count else math.nan
    quality["fixed_nrmse"] = total("fixed", 1) / total("fixed", 2) \
        if total("fixed", 2) else math.nan
    return quality


def _truth_of(dataset: Any) -> dict[tuple[str, str], tuple[float, bool]]:
    return {pair.key: (float(pair.parameters.true_nyquist_rate),
                       bool(pair.parameters.broadband))
            for pair in dataset.pairs()}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One closed-loop workload: inputs, set-up, the timed job and its checks."""

    name = ""
    pairs_per_job = 0

    def prepare(self, seed: int, work_dir: Path) -> None:
        """Generate the benchmark's own inputs (not counted as set-up)."""

    def open(self) -> None:
        """Program set-up before the warm-up job (counted as set-up)."""

    def job(self, seed: int, tracer: Tracer | None) -> Any:
        """The timed work of one job; returns whatever :meth:`observe` needs."""
        raise NotImplementedError

    def observe(self, output: Any) -> Observation:
        """Check one job's output and reduce it to an :class:`Observation`."""
        raise NotImplementedError

    def quality(self, observations: list[Observation]) -> tuple[dict[str, float], list[str]]:
        """Run-level quality metrics and run-level check failures."""
        raise NotImplementedError


class SurveyPaper(Workload):
    """The §3 survey on half the paper's 1613 pairs, one day each, library defaults."""

    name = "survey-paper"
    pairs_per_job = 806

    def job(self, seed: int, tracer: Tracer | None) -> Any:
        dataset = FleetDataset(DatasetConfig(pair_count=self.pairs_per_job, seed=seed))
        served: Any = dataset
        estimator: Any = NyquistEstimator()
        sink: Any = MemoryRecordSink()
        if tracer is not None:
            served = TracedSource(dataset, tracer)
            estimator = TracedEstimator(estimator, tracer)
            sink = TracedSink(sink, tracer)
        return dataset, run_survey(served, estimator=estimator, sink=sink)

    def observe(self, output: Any) -> Observation:
        dataset, result = output
        hasher = hashlib.sha256()
        _digest_blocks(hasher, result.iter_blocks())
        failures: list[str] = []
        survey = observe_survey(result, _truth_of(dataset), self.pairs_per_job, failures)
        oversampled = result.headline()["oversampled_fraction"]
        if not oversampled >= 0.7:
            failures.append(f"oversampled_fraction {oversampled:.3f} < 0.7")
        summary = {"oversampled_fraction": oversampled, **survey_quality([survey])}
        return Observation(hasher.hexdigest(), failures=failures, summary=summary,
                           survey=survey)

    def quality(self, observations: list[Observation]) -> tuple[dict[str, float], list[str]]:
        return survey_quality([obs.survey for obs in observations]), []


class PolicySurvey(Workload):
    """The paper's cost-vs-quality comparison on a 168-point leaf-spine fabric."""

    name = "policy-stationary"
    pairs_per_job = 168
    scenario: Any = None

    def job(self, seed: int, tracer: Tracer | None) -> Any:
        source = DeploymentSpec(topology=POLICY_FABRIC,
                                trace_duration=presets.TRACE_HOURS * 3600.0,
                                seed=seed, oversample_factor=4.0).open()
        served: Any = source if self.scenario is None else self.scenario.wrap(source)
        suite: Any = presets.paper_suite()
        accountant: Any = source.accountant()
        sink: Any = MemoryRecordSink()
        if tracer is not None:
            served = TracedSource(served, tracer)
            suite = TracedSuite(suite, tracer)
            accountant = TracedAccountant(accountant, tracer)
            sink = TracedSink(sink, tracer)
        return run_policy_survey(served, suite, accountant=accountant, sink=sink)

    def observe(self, output: Any) -> Observation:
        hasher = hashlib.sha256()
        _digest_blocks(hasher, output.iter_blocks())
        failures: list[str] = []
        policy = observe_policy(output, self.pairs_per_job, failures)
        return Observation(hasher.hexdigest(), failures=failures,
                           summary=policy_quality([policy]), policy=policy)

    def quality(self, observations: list[Observation]) -> tuple[dict[str, float], list[str]]:
        quality = policy_quality([obs.policy for obs in observations])
        return quality, self.run_checks(quality)

    def run_checks(self, quality: dict[str, float]) -> list[str]:
        """The paper's ordering and bounded error, over the whole run."""
        failures = []
        static, adaptive = quality["static_cost_ratio"], quality["adaptive_cost_ratio"]
        if not 1.0 > static > adaptive:
            failures.append(f"cost ordering fixed (1.0) > nyquist-static ({static:.3f}) "
                            f"> adaptive ({adaptive:.3f}) does not hold")
        for name in ("fixed_nrmse", "static_nrmse", "adaptive_nrmse"):
            if not quality[name] < 0.4:
                failures.append(f"{name} {quality[name]:.3f} is not below 0.4")
        return failures


class PolicyFlapChurn(PolicySurvey):
    """The same fabric and seeds under the ``flap-churn`` scenario.

    The adaptive controller never settles here, so its probing path runs
    for most of the trace; the paper's ordering inverts by design and is
    not checked.
    """

    name = "policy-flap-churn"

    def __init__(self) -> None:
        self.scenario = next(scenario for scenario in default_scenarios()
                             if scenario.name == "flap-churn")

    def run_checks(self, quality: dict[str, float]) -> list[str]:
        return []


class IngestRerun(Workload):
    """Re-ingest one gNMI dump, then serve both surveys from a warm record store.

    42 pairs of 12 h give a 50k-update dump with few files per job: the
    shared host's disk has slow phases that a CPU-speed correction cannot
    see, and file writes are the part of a job they slow.
    """

    name = "ingest-rerun"
    pairs_per_job = 42
    memory_budget_samples = 16384

    def prepare(self, seed: int, work_dir: Path) -> None:
        dataset = FleetDataset(DatasetConfig(pair_count=self.pairs_per_job,
                                             trace_duration=presets.TRACE_HOURS * 3600.0,
                                             seed=seed))
        self.work_dir = work_dir
        self.dump_path = dataset.export_gnmi_dump(work_dir / "dump.jsonl")
        self.truth = _truth_of(dataset)
        self.reference = {(record.metric_name, record.device_id): self._bits(record)
                          for record in run_survey(dataset).records}
        self.fleets = 0

    @staticmethod
    def _bits(record: Any) -> tuple:
        return (_bits(record.current_rate), _bits(record.nyquist_rate),
                _bits(record.reduction_ratio), record.category, record.reliable,
                _bits(record.trace_duration))

    def open(self) -> None:
        self.dump = open_export(self.dump_path)
        self.store = RecordStore(self.work_dir / "store")

    def job(self, seed: int, tracer: Tracer | None) -> Any:
        self.fleets += 1
        destination = self.work_dir / f"fleet-{self.fleets:04d}"
        dump: Any = self.dump
        store: Any = self.store
        estimator: Any = NyquistEstimator()
        suite: Any = presets.paper_suite()
        accountant: Any = TelemetryCostAccountant()
        survey_sink: Any = MemoryRecordSink()
        policy_sink: Any = MemoryRecordSink()
        if tracer is None:
            ingested = ingest_dump(dump, destination,
                                   memory_budget_samples=self.memory_budget_samples)
            source: Any = ingested
        else:
            dump = TracedDump(dump.path, dump.format, tracer)
            store = TracedStore(store, tracer)
            estimator = TracedEstimator(estimator, tracer)
            suite = TracedSuite(suite, tracer)
            accountant = TracedAccountant(accountant, tracer)
            survey_sink = TracedSink(survey_sink, tracer)
            policy_sink = TracedSink(policy_sink, tracer)
            ingested = tracer.call("telemetry.ingest", ingest_dump, dump, destination,
                                   memory_budget_samples=self.memory_budget_samples)
            source = TracedSource(ingested, tracer)
        survey = run_survey(source, estimator=estimator, sink=survey_sink, store=store)
        policy = run_policy_survey(source, suite, accountant=accountant,
                                   sink=policy_sink, store=store)
        return destination, ingested, survey, policy

    def observe(self, output: Any) -> Observation:
        destination, ingested, survey, policy = output
        hasher = hashlib.sha256()
        hasher.update((destination / "manifest.json").read_bytes())
        _digest_blocks(hasher, survey.iter_blocks())
        _digest_blocks(hasher, policy.iter_blocks())
        failures: list[str] = []
        records = {(record.metric_name, record.device_id): record
                   for record in survey.records}
        if records.keys() != self.reference.keys():
            failures.append("ingested survey covers different pairs than the reference")
        mismatched = sorted(key for key in records.keys() & self.reference.keys()
                            if self._bits(records[key]) != self.reference[key])
        if mismatched:
            failures.append(f"{len(mismatched)} ingested survey records differ from the "
                            f"reference, first {mismatched[0]}")
        observe_survey(survey, self.truth, self.pairs_per_job, failures)
        observe_policy(policy, self.pairs_per_job, failures)
        stats = ingested.ingest_stats
        counters = {"updates": stats.updates, "spill_writes": stats.spill_writes,
                    "spilled_samples": stats.spilled_samples,
                    "peak_buffered_samples": stats.peak_buffered_samples}
        shutil.rmtree(destination)
        return Observation(hasher.hexdigest(),
                           cache_hits=survey.cache_hits + policy.cache_hits,
                           cache_misses=survey.cache_misses + policy.cache_misses,
                           failures=failures, counters=counters)

    def quality(self, observations: list[Observation]) -> tuple[dict[str, float], list[str]]:
        return {}, []


WORKLOADS = {workload.name: workload for workload in
             (SurveyPaper, PolicySurvey, PolicyFlapChurn, IngestRerun)}


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
def run_job(workload: Workload, number: int, seed: int,
            tracer: Tracer | None) -> tuple[dict[str, Any], Observation | None]:
    """Run and time one job, then check it; a raising job is a failed job."""
    span = tracer.begin_job(number) if tracer is not None else None
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        output = workload.job(seed, tracer)
        error = None
    except Exception:  # a failed job is counted and reported, not fatal
        output = None
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        spans = tracer.end_job(span) if tracer is not None and span is not None else []
    record: dict[str, Any] = {"number": number, "seed": seed, "wall_s": wall,
                              "cpu_s": cpu, "pairs": workload.pairs_per_job,
                              "traced": tracer is not None}
    if error is not None:
        print(error, file=sys.stderr)
        record["failures"] = [error.strip().splitlines()[-1]]
        return record, None
    observation = workload.observe(output)
    record.update(digest=observation.digest, cache_hits=observation.cache_hits,
                  cache_misses=observation.cache_misses, failures=observation.failures,
                  summary=observation.summary, counters=observation.counters)
    if spans:
        record["layers"] = job_layers(spans)
    return record, observation


def _twin_differences(plain: dict[str, Any], traced: dict[str, Any]) -> list[str]:
    """What a traced job changed relative to its plain twin (should be nothing).

    Values are compared as canonical JSON so that a NaN quality number
    equals itself.
    """
    return [f"traced job {traced['number']} changed {key}: "
            f"{plain.get(key)!r} -> {traced.get(key)!r}"
            for key in ("digest", "cache_hits", "cache_misses", "summary")
            if json.dumps(plain.get(key), sort_keys=True)
            != json.dumps(traced.get(key), sort_keys=True)]


class HostSpeed:
    """Times a fixed kernel that tracks this host's current speed.

    On a shared host, other tenants slow every process by up to ~1.8x
    for minutes at a time.  This kernel (a batched numpy FFT and a
    pure-Python loop, none of it from the program under test) slows by
    the same factor, so ``run.py`` divides each job's wall time by the
    kernel's time around it.  Measured on the 2-vCPU reference host:
    jobs went from 0.37 to 0.56 s and the kernel from 0.020 to 0.030 s,
    with their ratio steady within 2-9%.
    """

    def __init__(self) -> None:
        self._matrix = np.random.default_rng(0).standard_normal((32, 4096))

    def measure(self) -> float:
        start = time.perf_counter()
        for _ in range(20):
            np.fft.rfft(self._matrix, axis=1)
        total = 0
        for value in range(150_000):
            total += value * value
        return time.perf_counter() - start


def measure(workload: Workload, seed: int, jobs: int, seconds: float, trace: bool,
            probe: bool, work_dir: Path, spans_path: Path | None) -> dict[str, Any]:
    """Set up, warm up, then run timed jobs; returns the JSON report.

    The host-speed kernel runs after the warm-up and after every timed
    job; a job's ``cal_s`` is the mean of the kernel times on either
    side of it.
    """
    started = time.perf_counter()
    workload.prepare(seed, work_dir)
    inputs_s = time.perf_counter() - started
    workload.open()
    warm_up, _ = run_job(workload, 0, seed, None)
    warm_up["timed"] = False
    ready = time.monotonic()
    host = HostSpeed()
    # Set-up is one sample per process, so its calibration takes the least
    # of three kernel runs: one 20 ms run alone spread set-up by ~10%.
    setup_cal = [host.measure() for _ in range(3)]
    before = setup_cal[-1]
    report: dict[str, Any] = {"workload": workload.name, "seed": seed, "ready": ready,
                              "inputs_s": inputs_s, "setup_cal_s": min(setup_cal)}
    if probe:
        return report

    tracer = Tracer() if trace else None
    records = [warm_up]

    def timed(number: int, job_tracer: Tracer | None) -> tuple[dict, Observation | None]:
        nonlocal before
        record, observation = run_job(workload, number, seed + number, job_tracer)
        after = host.measure()
        record.update(timed=True, cal_s=(before + after) / 2)
        before = after
        records.append(record)
        return record, observation

    observations: list[Observation] = []
    quality_jobs: list[dict[str, Any]] = []
    begin = time.perf_counter()
    number = 1
    while number <= jobs or time.perf_counter() - begin < seconds:
        record, observation = timed(number, None)
        if number <= jobs:
            quality_jobs.append(record)
            if observation is not None:
                observations.append(observation)
        if tracer is not None:
            twin, _ = timed(number, tracer)
            twin["failures"] = twin.get("failures", []) + _twin_differences(record, twin)
        number += 1

    run_failures: list[str] = []
    quality: dict[str, float] = {}
    if len(observations) == len(quality_jobs):
        quality, run_failures = workload.quality(observations)
    else:
        run_failures.append("quality not computed: a job of the quality set failed")
    if tracer is not None and spans_path is not None:
        tracer.write_jsonl(spans_path)
    report.update(jobs=records, quality=quality, run_failures=run_failures,
                  quality_jobs=[record["number"] for record in quality_jobs],
                  peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    report = measure(WORKLOADS[args.workload](), args.seed, args.jobs, args.seconds,
                     bool(args.trace), args.probe, args.work_dir, args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
