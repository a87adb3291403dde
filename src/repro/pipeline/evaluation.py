"""Cost-vs-quality evaluation of sampling policies.

This is the experiment behind the paper's title: for each sampling policy,
what does monitoring cost (samples collected, bytes moved and stored) and
what quality do we get back (reconstruction fidelity, event-detection
latency)?

Outcomes are stored columnarly: every evaluated (policy, measurement
point) row lands in a :class:`PolicyRecordBlock` -- a struct-of-arrays
chunk behind the shared :class:`~repro.records.RecordSink` abstraction --
so fleet-scale runs stream their results to disk
(:class:`~repro.records.SpillingRecordSink`) and aggregate with vectorised
numpy reductions, exactly like the Nyquist survey's
:class:`~repro.analysis.survey.RecordBlock`.  :class:`PointEvaluation`
remains as a lazily materialised per-row view.

Two drivers feed these blocks:

* :class:`CostQualityEvaluator` -- the per-point driver: runs every policy
  on one reference trace at a time, scores injected-event detection, and
  keeps the classic ``summaries`` / ``rows`` reporting surface.
* :func:`repro.analysis.policy_survey.run_policy_survey` -- the
  fleet-scale driver: batched policy evaluation over any trace source,
  priced with the same accountant, multi-worker and out-of-core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..core.errors import compare
from ..network.cost import CostBreakdown, TelemetryCostAccountant
from ..records import (BlockSchema, ColumnarBlock, ColumnSpec, MemoryRecordSink,
                       RecordSink, ScalarSpec, register_block_type)
from ..signals.timeseries import TimeSeries
from .events import DetectionOutcome, InjectedEvent, ThresholdDetector, score_detection
from .policies import PolicyBatchEvaluation, PolicyResult, SamplingPolicy

__all__ = ["PointEvaluation", "PolicyRecordBlock", "PolicySummary",
           "CostQualityEvaluator"]


@dataclass(frozen=True)
class PointEvaluation:
    """One (policy, measurement point) outcome.

    A per-row *view*: evaluations are stored columnarly in
    :class:`PolicyRecordBlock` arrays and materialised into these objects
    on demand.
    """

    policy_name: str
    point_name: str
    metric_name: str
    samples_collected: int
    cost: CostBreakdown
    nrmse: float
    max_abs_error: float
    detection: DetectionOutcome | None

    @property
    def detected(self) -> bool | None:
        return None if self.detection is None else self.detection.detected


#: Codes of the int8 ``detected`` column.
DETECTION_UNSCORED: int = -1
DETECTION_MISSED: int = 0
DETECTION_DETECTED: int = 1


@register_block_type
@dataclass(frozen=True)
class PolicyRecordBlock(ColumnarBlock):
    """Struct-of-arrays storage for one chunk of policy-evaluation outcomes.

    All rows belong to one (metric, policy) pair -- chunks are produced
    per metric batch and per policy by both the per-point evaluator and
    the fleet policy survey -- so both names are block-level scalars.
    Rows carry the evaluated measurement point (``device_ids``), the
    policy's collection volume and achieved rate, the reconstruction
    error, the priced cost components (hop-weighted transmission
    included), and the optional event-detection outcome.  Blocks are the
    unit of spilling: each round-trips losslessly through ``.rcb`` or
    ``.csv`` behind the sink layer of :mod:`repro.records`, with the
    layout (and hence the on-disk format) declared once in ``_SCHEMA``.
    """

    _SCHEMA = BlockSchema(
        scalars=(ScalarSpec("metric_name", "metric"),
                 ScalarSpec("policy_name", "policy")),
        columns=(
            ColumnSpec("device_ids", "str", csv_name="device_id"),
            ColumnSpec("samples", "int"),
            ColumnSpec("mean_rate_hz", "float"),
            ColumnSpec("nrmse", "float"),
            ColumnSpec("max_abs_error", "float"),
            ColumnSpec("hops", "int"),
            ColumnSpec("collection_cpu_us", "float"),
            ColumnSpec("transmission", "float"),
            ColumnSpec("storage_bytes", "float"),
            ColumnSpec("analysis", "float"),
            ColumnSpec("detected", "int8"),
            ColumnSpec("detection_latency", "float"),
        ))

    metric_name: str
    policy_name: str
    device_ids: np.ndarray
    samples: np.ndarray
    mean_rate_hz: np.ndarray
    nrmse: np.ndarray
    max_abs_error: np.ndarray
    hops: np.ndarray
    collection_cpu_us: np.ndarray
    transmission: np.ndarray
    storage_bytes: np.ndarray
    analysis: np.ndarray
    detected: np.ndarray
    detection_latency: np.ndarray

    @property
    def total_cost(self) -> np.ndarray:
        """Per-row unit-weighted cost total (the :attr:`CostBreakdown.total` sum)."""
        return (self.collection_cpu_us + self.transmission
                + self.storage_bytes + self.analysis)

    # ------------------------------------------------------------------
    @classmethod
    def from_batch(cls, metric_name: str, evaluation: PolicyBatchEvaluation,
                   device_ids: Sequence[str],
                   priced: dict[str, np.ndarray]) -> "PolicyRecordBlock":
        """Assemble a block from one batched policy evaluation plus its pricing.

        ``priced`` is the column dict of
        :meth:`~repro.network.cost.TelemetryCostAccountant.price_sample_block`
        for the same rows.  Detection columns default to "not scored" (the
        fleet survey evaluates reconstruction cost/quality; event scoring
        is the per-point evaluator's job).
        """
        rows = len(evaluation)
        return cls(
            metric_name=metric_name,
            policy_name=evaluation.policy_name,
            device_ids=np.array(list(device_ids), dtype=np.str_),
            samples=evaluation.samples_collected,
            mean_rate_hz=evaluation.mean_sampling_rate,
            nrmse=evaluation.nrmse,
            max_abs_error=evaluation.max_abs_error,
            hops=priced["hops"],
            collection_cpu_us=priced["collection_cpu_us"],
            transmission=priced["transmission"],
            storage_bytes=priced["storage_bytes"],
            analysis=priced["analysis"],
            detected=np.full(rows, DETECTION_UNSCORED, dtype=np.int8),
            detection_latency=np.full(rows, np.nan),
        )

    def to_evaluations(self) -> Iterator[PointEvaluation]:
        """Materialise one :class:`PointEvaluation` view per row."""
        for index in range(len(self)):
            code = int(self.detected[index])
            detection = None
            if code != DETECTION_UNSCORED:
                detection = DetectionOutcome(
                    policy_name=self.policy_name,
                    detected=code == DETECTION_DETECTED,
                    latency=float(self.detection_latency[index]),
                )
            yield PointEvaluation(
                policy_name=self.policy_name,
                point_name=str(self.device_ids[index]),
                metric_name=self.metric_name,
                samples_collected=int(self.samples[index]),
                cost=CostBreakdown(
                    samples=int(self.samples[index]),
                    collection_cpu_us=float(self.collection_cpu_us[index]),
                    transmission=float(self.transmission[index]),
                    storage_bytes=float(self.storage_bytes[index]),
                    analysis=float(self.analysis[index]),
                ),
                nrmse=float(self.nrmse[index]),
                max_abs_error=float(self.max_abs_error[index]),
                detection=detection,
            )

@dataclass
class PolicySummary:
    """Aggregate cost and quality of one policy across all evaluated points."""

    policy_name: str
    evaluations: list[PointEvaluation] = field(default_factory=list)

    @property
    def total_samples(self) -> int:
        return sum(entry.samples_collected for entry in self.evaluations)

    @property
    def total_cost(self) -> CostBreakdown:
        total = CostBreakdown()
        for entry in self.evaluations:
            total.add(entry.cost)
        return total

    @property
    def mean_nrmse(self) -> float:
        values = [entry.nrmse for entry in self.evaluations if not math.isnan(entry.nrmse)]
        return float(np.mean(values)) if values else float("nan")

    @property
    def worst_nrmse(self) -> float:
        values = [entry.nrmse for entry in self.evaluations if not math.isnan(entry.nrmse)]
        return float(np.max(values)) if values else float("nan")

    @property
    def detection_rate(self) -> float:
        scored = [entry for entry in self.evaluations if entry.detection is not None]
        if not scored:
            return float("nan")
        return float(np.mean([entry.detection.detected for entry in scored]))

    @property
    def mean_detection_latency(self) -> float:
        latencies = [entry.detection.latency for entry in self.evaluations
                     if entry.detection is not None and entry.detection.detected]
        return float(np.mean(latencies)) if latencies else float("nan")

    def as_row(self) -> dict[str, float | str]:
        """Flat row for tables / CSV export."""
        cost = self.total_cost
        return {
            "policy": self.policy_name,
            "points": float(len(self.evaluations)),
            "samples": float(self.total_samples),
            "total_cost": cost.total,
            "storage_bytes": cost.storage_bytes,
            "transmission": cost.transmission,
            "mean_nrmse": self.mean_nrmse,
            "worst_nrmse": self.worst_nrmse,
            "detection_rate": self.detection_rate,
            "mean_detection_latency_s": self.mean_detection_latency,
        }


class CostQualityEvaluator:
    """Run several sampling policies over the same measurement points and compare them.

    Every evaluated (policy, point) row is appended to a
    :class:`PolicyRecordBlock` behind ``sink`` (in-memory by default; pass
    a :class:`~repro.records.SpillingRecordSink` to stream rows to disk).
    ``summaries`` and ``rows`` are views over that columnar store.
    """

    def __init__(self, policies: Sequence[SamplingPolicy],
                 accountant: TelemetryCostAccountant | None = None,
                 detector: ThresholdDetector | None = None,
                 sink: RecordSink | None = None) -> None:
        if not policies:
            raise ValueError("need at least one policy")
        names = [policy.name for policy in policies]
        if len(set(names)) != len(names):
            raise ValueError("policy names must be unique")
        self.policies = list(policies)
        self.accountant = accountant or TelemetryCostAccountant()
        self.detector = detector or ThresholdDetector()
        self._sink = sink if sink is not None else MemoryRecordSink()
        self._summaries_cache: tuple[int, dict[str, PolicySummary]] | None = None

    # ------------------------------------------------------------------
    @property
    def sink(self) -> RecordSink:
        return self._sink

    def iter_blocks(self) -> Iterator[PolicyRecordBlock]:
        """Stream the stored columnar chunks in evaluation order."""
        return self._sink.blocks()

    def evaluate_point(self, point_name: str, metric_name: str, reference: TimeSeries,
                       event: InjectedEvent | None = None) -> list[PointEvaluation]:
        """Run every policy on one measurement point's reference trace."""
        results = []
        for policy in self.policies:
            outcome: PolicyResult = policy.collect(reference)
            error = compare(reference, outcome.reconstructed)
            cost = self.accountant.price_samples(point_name, outcome.samples_collected)
            detection = None
            if event is not None:
                detection = score_detection(policy.name, outcome.collected, event,
                                            detector=self.detector)
            if detection is None:
                detected_code, latency = DETECTION_UNSCORED, float("nan")
            elif detection.detected:
                detected_code, latency = DETECTION_DETECTED, detection.latency
            else:
                detected_code, latency = DETECTION_MISSED, detection.latency
            block = PolicyRecordBlock(
                metric_name=metric_name,
                policy_name=policy.name,
                device_ids=np.array([point_name], dtype=np.str_),
                samples=np.array([outcome.samples_collected], dtype=np.int64),
                mean_rate_hz=np.array([outcome.mean_sampling_rate]),
                nrmse=np.array([error.nrmse]),
                max_abs_error=np.array([error.max_abs]),
                hops=np.array([self.accountant.hops(point_name)], dtype=np.int64),
                collection_cpu_us=np.array([cost.collection_cpu_us]),
                transmission=np.array([cost.transmission]),
                storage_bytes=np.array([cost.storage_bytes]),
                analysis=np.array([cost.analysis]),
                detected=np.array([detected_code], dtype=np.int8),
                detection_latency=np.array([latency]),
            )
            self._sink.append(block)
            results.extend(block.to_evaluations())
        return results

    # ------------------------------------------------------------------
    @property
    def summaries(self) -> dict[str, PolicySummary]:
        """Per-policy summaries, materialised from the columnar store.

        Cached per sink state: the (possibly spilled) blocks are only
        re-read after new evaluations land, so repeated reporting calls
        (``rows``, ``relative_costs``, direct ``summaries`` access) do
        not re-stream a spill directory each time.
        """
        if self._summaries_cache is not None and \
                self._summaries_cache[0] == self._sink.rows:
            return self._summaries_cache[1]
        summaries = {policy.name: PolicySummary(policy.name) for policy in self.policies}
        for block in self._sink.blocks():
            summary = summaries.get(block.policy_name)
            if summary is None:  # pragma: no cover - foreign blocks in a reused sink
                summary = summaries.setdefault(block.policy_name,
                                               PolicySummary(block.policy_name))
            summary.evaluations.extend(block.to_evaluations())
        self._summaries_cache = (self._sink.rows, summaries)
        return summaries

    def rows(self) -> list[dict[str, float | str]]:
        """One aggregate row per policy (in the order policies were given)."""
        summaries = self.summaries
        return [summaries[policy.name].as_row() for policy in self.policies]

    def relative_costs(self, baseline_policy: str) -> dict[str, float]:
        """Total cost of each policy relative to ``baseline_policy``.

        Raises :class:`ValueError` when the baseline's total cost is zero
        (e.g. no points evaluated yet, or a zero cost model): dividing by
        it would silently turn every relative cost into ``nan`` and
        propagate through reports.
        """
        summaries = self.summaries
        if baseline_policy not in summaries:
            raise KeyError(f"unknown policy {baseline_policy!r}")
        baseline = summaries[baseline_policy].total_cost.total
        if baseline == 0:
            raise ValueError(
                f"baseline policy {baseline_policy!r} has zero total cost "
                f"({len(summaries[baseline_policy].evaluations)} points evaluated); "
                "relative costs are undefined")
        return {name: summary.total_cost.total / baseline
                for name, summary in summaries.items()}
