"""Monitoring pipeline: sampling policies, event injection and cost/quality evaluation."""

from .evaluation import PolicyRecordBlock
from .events import (DetectionOutcome, EventKind, InjectedEvent, ModeTransition,
                     inject_event, reprobe_latency, resettle_latency, score_detection)
from .policies import (AdaptiveDualRatePolicy, Collection, FixedRatePolicy,
                       NyquistStaticPolicy, PolicyBatchEvaluation, PolicySuite, SamplingPolicy)

__all__ = [
    "SamplingPolicy", "Collection", "PolicyBatchEvaluation", "FixedRatePolicy",
    "NyquistStaticPolicy", "AdaptiveDualRatePolicy", "PolicySuite",
    "EventKind", "InjectedEvent", "inject_event", "DetectionOutcome", "score_detection",
    "ModeTransition", "reprobe_latency", "resettle_latency",
    "PolicyRecordBlock",
]
