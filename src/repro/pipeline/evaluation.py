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

Two drivers feed these blocks, both in :mod:`repro.analysis.policy_survey`
and both reporting through its ``PolicySurveyResult``:

* :func:`~repro.analysis.policy_survey.run_policy_survey` -- the
  fleet-scale driver: batched policy evaluation over any trace source,
  multi-worker and out-of-core.
* :class:`~repro.analysis.policy_survey.CostQualityEvaluator` -- the
  per-point driver: runs every policy on one reference trace at a time
  and also scores injected-event detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..network.cost import CostBreakdown
from ..records import BlockSchema, ColumnarBlock, ColumnSpec, ScalarSpec, register_block_type
from .events import DetectionOutcome
from .policies import PolicyBatchEvaluation

__all__ = ["PointEvaluation", "PolicyRecordBlock"]


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
    unit of spilling: each round-trips losslessly through ``.rcb`` behind
    the sink layer of :mod:`repro.records`, with the layout (and hence the
    on-disk format) declared once in ``_SCHEMA``.
    """

    _SCHEMA = BlockSchema(
        scalars=(ScalarSpec("metric_name"),
                 ScalarSpec("policy_name")),
        columns=(
            ColumnSpec("device_ids", "str"),
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
