"""The fleet policy survey: cost vs quality for every (metric, device) pair.

This is the paper's headline experiment (the cost/quality sweet spot) run
at survey scale: for every measurement point of a
:class:`~repro.telemetry.source.TraceSource`, evaluate how today's
fixed-rate polling compares against Nyquist-informed sampling policies --
what each policy costs (samples collected, hop-weighted bytes moved,
storage, analysis) and what quality it returns (reconstruction error
against the reference trace).

Execution -- slicing, the worker pool, the record store, retry and
quarantine -- is the slice driver shared with
:func:`repro.analysis.survey.run_survey` (:mod:`repro.analysis.driver`);
this module supplies the per-batch evaluate-and-price step.  What the
pipeline offers:

* **Columnar storage.**  Each (metric batch, policy) produces one
  :class:`~repro.pipeline.evaluation.PolicyRecordBlock`; aggregations are
  streamed numpy reductions over the blocks.
* **Out-of-core results.**  Blocks flow into a
  :class:`~repro.records.RecordSink`; pass a
  :class:`~repro.records.SpillingRecordSink` and a fleet-scale evaluation
  holds one ``chunk_size`` block in memory at a time.  A spilled run
  re-opens later via ``PolicySurveyResult(sink=SpillingRecordSink(dir))``.
* **Multi-worker execution.**  ``run_policy_survey(workers=N)`` fans
  trace production, policy collection, reconstruction *and* cost
  accounting out to a process pool.  Workers receive picklable batch
  specs (the source's ``worker_spec()`` plus a pair-slice address, the
  policy suite recipe and the pricing accountant), re-open the source
  locally and return compact columnar blocks.  Records are byte-identical
  to ``workers=1`` because every mode works on the same ``chunk_size``
  pair slices.
* **Vectorised hot loops.**  Policies are evaluated through
  :meth:`~repro.pipeline.policies.SamplingPolicy.evaluate_batch`: each
  policy collects from the whole batch at once (batched decimation, one
  ``estimate_batch`` calibration call, the controller stepping every row
  together) and every group of equal-shape laid-out streams is
  reconstructed with one batched FFT pair; pricing is one vectorised
  :meth:`~repro.network.cost.TelemetryCostAccountant.price_sample_block`
  call per block.

Policies are specified as a :class:`~repro.pipeline.policies.PolicySuite`:
rates are derived per metric from the production interval, since a
fleet's metrics poll at different rates.  With a
:class:`~repro.network.DeploymentTraceSource` and an accountant built on
the same topology, the survey prices every point with real fabric hop
counts -- the end-to-end wiring of :mod:`repro.network`.

:class:`CostQualityEvaluator` is the per-point driver on the same result
type: it runs every policy's
:meth:`~repro.pipeline.policies.SamplingPolicy.collect_batch` on one
reference trace at a time (a one-row batch), scores the collection as
the fleet survey does, scores injected-event detection on the same
laid-out stream, and appends the same blocks, so both drivers report
through one :meth:`PolicySurveyResult.rows` format.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from ..network.cost import TelemetryCostAccountant
from ..pipeline.evaluation import (DETECTION_DETECTED, DETECTION_MISSED, DETECTION_UNSCORED,
                                   PolicyRecordBlock)
from ..pipeline.events import InjectedEvent, score_detection
from ..pipeline.policies import PolicySuite, SamplingPolicy
from ..records import RecordSink, RecordStore
from ..signals.timeseries import TimeSeries
from ..telemetry.source import TraceBatch, TraceSource
from .driver import OnError, SliceResult, check_run_options, run_slices

__all__ = ["PolicySurveyResult", "CostQualityEvaluator", "run_policy_survey", "OnError"]


#: Columns accumulated per policy by the streaming aggregation.
_SUM_COLUMNS = ("collection_cpu_us", "transmission", "storage_bytes", "analysis")


@dataclass
class _PolicyTotals:
    """Streaming accumulator for one policy's aggregate row."""

    points: int = 0
    samples: int = 0
    collection_cpu_us: float = 0.0
    transmission: float = 0.0
    storage_bytes: float = 0.0
    analysis: float = 0.0
    nrmse_sum: float = 0.0
    nrmse_count: int = 0
    worst_nrmse: float = float("nan")
    scored: int = 0
    detected: int = 0
    latency_sum: float = 0.0

    def add(self, block: PolicyRecordBlock) -> None:
        self.points += len(block)
        self.samples += int(block.samples.sum())
        for column in _SUM_COLUMNS:
            setattr(self, column,
                    getattr(self, column) + float(getattr(block, column).sum()))
        finite = block.nrmse[~np.isnan(block.nrmse)]
        if finite.size:
            self.nrmse_sum += float(finite.sum())
            self.nrmse_count += int(finite.size)
            worst = float(finite.max())
            if not self.worst_nrmse >= worst:  # also replaces the initial nan
                self.worst_nrmse = worst
        hits = block.detected == DETECTION_DETECTED
        self.scored += int(np.count_nonzero(block.detected != DETECTION_UNSCORED))
        self.detected += int(np.count_nonzero(hits))
        self.latency_sum += float(block.detection_latency[hits].sum())

    @property
    def total_cost(self) -> float:
        return (self.collection_cpu_us + self.transmission
                + self.storage_bytes + self.analysis)

    @property
    def mean_nrmse(self) -> float:
        return self.nrmse_sum / self.nrmse_count if self.nrmse_count else float("nan")

    # ``math.nan`` is one object, so rows of unscored runs compare equal.
    @property
    def detection_rate(self) -> float:
        return self.detected / self.scored if self.scored else math.nan

    @property
    def mean_detection_latency(self) -> float:
        return self.latency_sum / self.detected if self.detected else math.nan


class PolicySurveyResult(SliceResult):
    """All policy-evaluation records of one survey run, with aggregations.

    Outcomes live in columnar
    :class:`~repro.pipeline.evaluation.PolicyRecordBlock` chunks behind a
    :class:`~repro.records.RecordSink`; every aggregation streams the
    blocks, so a spilled (out-of-core) run aggregates identically to an
    in-memory one while holding one block in memory at a time.
    ``cache_hits`` / ``cache_misses`` count the pairs of
    ``run_policy_survey(store=...)``.
    """

    def __init__(self, sink: RecordSink | None = None,
                 failure_sink: RecordSink | None = None) -> None:
        self._policy_order: list[str] = []
        self._totals_cache: tuple[int, dict[str, _PolicyTotals]] | None = None
        super().__init__(sink, failure_sink)

    def _note(self, block: PolicyRecordBlock) -> None:
        super()._note(block)
        if block.policy_name not in self._policy_order:
            self._policy_order.append(block.policy_name)

    def policies(self) -> list[str]:
        """Policy names present in the survey, in first-appearance order."""
        return list(self._policy_order)

    # ------------------------------------------------------------------
    def _totals(self) -> dict[str, _PolicyTotals]:
        """Streamed per-policy totals, cached per sink state.

        Reporting typically asks for ``rows()`` *and* ``relative_costs``;
        without the cache each call would re-stream (for a spilled run:
        re-read) every block.
        """
        if self._totals_cache is not None and self._totals_cache[0] == self._sink.rows:
            return self._totals_cache[1]
        totals = {name: _PolicyTotals() for name in self._policy_order}
        for block in self._sink.blocks():
            totals[block.policy_name].add(block)
        self._totals_cache = (self._sink.rows, totals)
        return totals

    def rows(self) -> list[dict[str, float | str]]:
        """One aggregate cost/quality row per policy -- the paper's table.

        Keys: points, samples, the cost components and total, the
        mean/worst reconstruction nrmse, then the share of scored rows
        that detected their injected event and the mean latency of the
        detections.  Only :meth:`CostQualityEvaluator.evaluate_point`
        scores detection (the fleet survey keeps no collected stream);
        both detection columns are ``nan`` otherwise.
        """
        rows = []
        for name, totals in self._totals().items():
            rows.append({
                "policy": name,
                "points": float(totals.points),
                "samples": float(totals.samples),
                "total_cost": totals.total_cost,
                "collection_cpu_us": totals.collection_cpu_us,
                "transmission": totals.transmission,
                "storage_bytes": totals.storage_bytes,
                "analysis": totals.analysis,
                "mean_nrmse": totals.mean_nrmse,
                "worst_nrmse": totals.worst_nrmse,
                "detection_rate": totals.detection_rate,
                "mean_detection_latency_s": totals.mean_detection_latency,
            })
        return rows

    def relative_costs(self, baseline_policy: str) -> dict[str, float]:
        """Total cost of each policy relative to ``baseline_policy``.

        The paper's headline comparison.  Raises :class:`ValueError` when
        the baseline's total cost is zero rather than flooding the report
        with ``nan``.
        """
        totals = self._totals()
        if baseline_policy not in totals:
            raise KeyError(f"unknown policy {baseline_policy!r}")
        baseline = totals[baseline_policy].total_cost
        if baseline == 0:
            raise ValueError(
                f"baseline policy {baseline_policy!r} has zero total cost "
                f"({totals[baseline_policy].points} points evaluated); "
                "relative costs are undefined")
        return {name: entry.total_cost / baseline for name, entry in totals.items()}

    def nrmse_values(self, policy_name: str) -> np.ndarray:
        """All finite per-point nrmse values of one policy (quality CDFs)."""
        parts = [block.nrmse[~np.isnan(block.nrmse)]
                 for block in self._sink.blocks() if block.policy_name == policy_name]
        return np.concatenate(parts) if parts else np.array([])


class CostQualityEvaluator(PolicySurveyResult):
    """Run several sampling policies over the same measurement points and compare them.

    The per-point driver: :meth:`evaluate_point` runs every policy's one
    collection method on one reference trace, scores the reconstruction
    the way :meth:`~repro.pipeline.policies.SamplingPolicy.evaluate_batch`
    does, scores an optional injected event against the laid-out stream,
    and appends one 1-row
    :class:`~repro.pipeline.evaluation.PolicyRecordBlock` per policy to
    an in-memory sink.  Every report -- ``rows``, ``relative_costs`` -- is
    the inherited :class:`PolicySurveyResult` one, and lists every policy
    from the start, in the order given.
    """

    def __init__(self, policies: Sequence[SamplingPolicy],
                 accountant: TelemetryCostAccountant | None = None) -> None:
        if not policies:
            raise ValueError("need at least one policy")
        names = [policy.name for policy in policies]
        if len(set(names)) != len(names):
            raise ValueError("policy names must be unique")
        super().__init__()
        self._policy_order = names
        self._policies = list(policies)
        self.accountant = accountant or TelemetryCostAccountant()

    def evaluate_point(self, point_name: str, metric_name: str, reference: TimeSeries,
                       event: InjectedEvent | None = None) -> None:
        """Run every policy on one measurement point's reference trace.

        Appends one 1-row block per policy.  Each policy collects from
        the trace as a one-row batch and the collection is scored exactly
        as the fleet survey scores a row; with an ``event``, the same
        laid-out stream is also scored for detection.  The stream is laid
        out once for both.
        """
        values = reference.values[None, :]
        for policy in self._policies:
            collection = policy.collect_batch(values, reference.interval)
            streams = list(collection.streams(values, reference.interval))
            evaluation = collection.score(policy.name, values, reference.interval, streams)
            block = PolicyRecordBlock.from_batch(
                metric_name, evaluation, [point_name],
                self.accountant.price_sample_block([point_name],
                                                   evaluation.samples_collected))
            if event is not None:
                # One row, so one group.
                (_, stream, stream_interval), = streams
                collected = TimeSeries(stream[0], stream_interval,
                                       start_time=reference.start_time)
                detection = score_detection(policy.name, collected, event)
                code = DETECTION_DETECTED if detection.detected else DETECTION_MISSED
                block = dataclasses.replace(
                    block, detected=np.array([code], dtype=np.int8),
                    detection_latency=np.array([detection.latency]))
            self.append_block(block)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PolicyEvaluator:
    """The policy survey's per-batch step for the slice driver: evaluate and price."""

    suite: PolicySuite
    accountant: TelemetryCostAccountant

    kind: ClassVar[str] = "policy"
    stage: ClassVar[str] = "evaluate"

    def params_token(self) -> str:
        token = getattr(self.suite, "cache_token", None)
        if token is None:
            raise ValueError(
                f"policy suite {type(self.suite).__name__} does not define cache_token(); "
                "store-backed policy surveys need a deterministic parameter fingerprint")
        return f"{token()}|{self.accountant.cache_token()}"

    def evaluate(self, metric_name: str, batch: TraceBatch) -> list[PolicyRecordBlock]:
        """Evaluate every policy of the suite on one trace batch and price it."""
        devices = [pair.device.device_id for pair in batch.pairs]
        blocks = []
        for policy in self.suite.build(batch.interval):
            evaluation = policy.evaluate_batch(batch.values, batch.interval)
            priced = self.accountant.price_sample_block(devices, evaluation.samples_collected)
            blocks.append(PolicyRecordBlock.from_batch(metric_name, evaluation,
                                                       devices, priced))
        return blocks


def run_policy_survey(source: TraceSource,
                      policies: PolicySuite,
                      accountant: TelemetryCostAccountant | None = None,
                      metrics: Sequence[str] | None = None,
                      limit_per_metric: int | None = None,
                      chunk_size: int = 256,
                      workers: int | None = None,
                      sink: RecordSink | None = None,
                      on_error: OnError = "raise",
                      failure_sink: RecordSink | None = None,
                      store: RecordStore | None = None,
                      ) -> PolicySurveyResult:
    """Evaluate sampling policies over every pair of a trace source.

    Parameters
    ----------
    source:
        Any :class:`~repro.telemetry.source.TraceSource`: a synthetic
        :class:`~repro.telemetry.dataset.FleetDataset`, a recorded
        :class:`~repro.telemetry.measured.MeasuredFleetDataset` (a
        directory exported by ``repro-monitor export-fleet``), or a
        :class:`~repro.network.DeploymentTraceSource` over a monitored
        fabric.  The source's traces are the *references* the policies
        sample from.
    policies:
        A :class:`~repro.pipeline.policies.PolicySuite`: per-metric
        policies derived from the production rate.
    accountant:
        Prices each point's collected samples; build it on the same
        topology as a deployment source so transmission is weighted by
        real hop counts.  Defaults to the topology-less accountant
        (every device at three hops).
    metrics / limit_per_metric:
        Restrict the survey to these metrics (default: all the source
        serves) and cap the pairs evaluated per metric.
    chunk_size:
        Traces held in memory at once; also the pair-slice size of the
        slice driver, so each result block holds at most ``chunk_size``
        rows.
    workers:
        Worker processes; ``>= 2`` fans the whole per-batch pipeline out
        via picklable specs, byte-identical to a single-process run.
    sink:
        Destination for the columnar result blocks (default: in-memory;
        pass a :class:`~repro.records.SpillingRecordSink` for
        out-of-core runs).
    on_error:
        ``"raise"`` (default) fails fast on the first bad pair;
        ``"quarantine"`` isolates failures instead: each failed batch
        slice is salvaged pair by pair, healthy pairs keep their
        records (byte-identical to a no-fault run at any worker count)
        and failed pairs become
        :class:`~repro.records.FailureRecord` rows in ``failure_sink``.
    failure_sink:
        Destination for the quarantined-failure blocks (default:
        in-memory; pass a :class:`~repro.records.SpillingRecordSink`
        rooted elsewhere than ``sink``).
    store:
        A :class:`~repro.records.RecordStore` for incremental reruns.
        Slices already fingerprinted in the store (pair contents + the
        suite's and accountant's ``cache_token()``) are served as
        its ``.rcb`` blocks without loading a trace; misses run exactly
        as a store-less run would, then are written back atomically.
        ``PolicySurveyResult.cache_hits`` / ``cache_misses`` count the
        pairs on each path; quarantined slices are never cached.

    Transient (IO-shaped) failures and crashed workers are retried up to
    :data:`~repro.faults.MAX_ATTEMPTS` tries with deterministic backoff.
    """
    check_run_options("run_policy_survey", PolicySurveyResult, workers, on_error, sink,
                      failure_sink)
    result = PolicySurveyResult(sink=sink, failure_sink=failure_sink)
    evaluator = _PolicyEvaluator(policies, accountant or TelemetryCostAccountant())
    run_slices(source, evaluator, result, metric_names=metrics,
               limit_per_metric=limit_per_metric, chunk_size=chunk_size, workers=workers,
               on_error=on_error, store=store, sleep=time.sleep)
    return result
