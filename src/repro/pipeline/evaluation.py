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
:class:`~repro.analysis.survey.RecordBlock`.

Two drivers feed these blocks, both in :mod:`repro.analysis.policy_survey`
and both reporting through its ``PolicySurveyResult``.  Both collect
through each policy's one collection method
(:meth:`~repro.pipeline.policies.SamplingPolicy.collect_batch`) and score
the collection the same way, so they store the same rows:

* :func:`~repro.analysis.policy_survey.run_policy_survey` -- the
  fleet-scale driver: batched policy evaluation over any trace source,
  multi-worker and out-of-core.
* :class:`~repro.analysis.policy_survey.CostQualityEvaluator` -- the
  per-point driver: collects from one reference trace at a time (a
  one-row batch) and also scores injected-event detection on the
  laid-out stream (:meth:`~repro.pipeline.policies.Collection.streams`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..records import ColumnarBlock, column, register_block_type
from .policies import PolicyBatchEvaluation

__all__ = ["PolicyRecordBlock"]


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
    on-disk format) declared once, by the fields below.
    """

    metric_name: str
    policy_name: str
    device_ids: np.ndarray = column("str")
    samples: np.ndarray = column("int")
    mean_rate_hz: np.ndarray = column("float")
    nrmse: np.ndarray = column("float")
    max_abs_error: np.ndarray = column("float")
    hops: np.ndarray = column("int")
    collection_cpu_us: np.ndarray = column("float")
    transmission: np.ndarray = column("float")
    storage_bytes: np.ndarray = column("float")
    analysis: np.ndarray = column("float")
    detected: np.ndarray = column("int8")
    detection_latency: np.ndarray = column("float")

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
