"""Unit tests for the slice driver shared by both fleet surveys."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import pytest

from repro.analysis.driver import run_slices
from repro.analysis.policy_survey import run_policy_survey
from repro.analysis.survey import run_survey
from repro.pipeline.policies import PolicySuite
from repro.records import MemoryRecordSink
from repro.telemetry.dataset import DatasetConfig, FleetDataset


@dataclass(frozen=True)
class KeyEvaluator:
    """Emits each batch's pair keys as its one block; raises on batches holding ``poisoned``."""

    poisoned: tuple[str, str]
    kind: str = "test"
    stage: str = "evaluate-test"

    def params_token(self) -> str:
        return "keys"

    def evaluate(self, metric_name, batch):
        keys = [pair.key for pair in batch.pairs]
        if self.poisoned in keys:
            raise FloatingPointError(f"poisoned row {self.poisoned}")
        return [keys]


@dataclass
class KeyResult:
    """The minimal result feed: collects blocks and failures."""

    sink: MemoryRecordSink = field(default_factory=MemoryRecordSink)
    blocks: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    def append_block(self, block) -> None:
        self.blocks.append(block)

    def append_failures(self, failures) -> None:
        self.failures.extend(failures)


@pytest.mark.parametrize("workers", [1, 2])
def test_salvage_reruns_a_failing_group_row_by_row(workers):
    """Only the row whose evaluation raises is quarantined, at the evaluator's stage."""
    dataset = FleetDataset(DatasetConfig(pair_count=28, seed=5))
    metric = dataset.metric_names()[0]
    pairs = dataset.pairs_for_metric(metric)
    evaluator = KeyEvaluator(poisoned=pairs[1].key)
    result = KeyResult()
    run_slices(dataset, evaluator, result, metric_names=[metric], limit_per_metric=None,
               chunk_size=4, workers=workers, on_error="quarantine", store=None,
               sleep=lambda delay: None)
    assert [(f.metric_name, f.device_id, f.stage, f.error_type) for f in result.failures] \
        == [(*pairs[1].key, "evaluate-test", "FloatingPointError")]
    assert [key for block in result.blocks for key in block] == \
        [pair.key for index, pair in enumerate(pairs) if index != 1]


def test_raise_mode_propagates_the_evaluation_error():
    dataset = FleetDataset(DatasetConfig(pair_count=14, seed=5))
    metric = dataset.metric_names()[0]
    evaluator = KeyEvaluator(poisoned=dataset.pairs_for_metric(metric)[0].key)
    with pytest.raises(FloatingPointError, match="poisoned"):
        run_slices(dataset, evaluator, KeyResult(), metric_names=[metric],
                   limit_per_metric=None, chunk_size=4, workers=1, on_error="raise",
                   store=None, sleep=lambda delay: None)


@pytest.mark.parametrize("pipeline", ["run_survey", "run_policy_survey"])
def test_run_checks_name_the_pipeline_and_its_result(pipeline):
    """Both entry points share one copy of the checks; messages say which one refused."""
    dataset = FleetDataset(DatasetConfig(pair_count=14, seed=5))
    if pipeline == "run_survey":
        run, result_name = partial(run_survey, dataset), "SurveyResult"
    else:
        run, result_name = partial(run_policy_survey, dataset, PolicySuite()), \
            "PolicySurveyResult"
    used = MemoryRecordSink()
    run_survey(dataset, sink=used)
    with pytest.raises(ValueError, match=f"^{pipeline}: workers"):
        run(workers=0)
    with pytest.raises(ValueError, match=f"^{pipeline}: on_error"):
        run(on_error="skip")
    with pytest.raises(ValueError, match=rf"already holds .*{result_name}\(sink="):
        run(sink=used)
    with pytest.raises(ValueError, match=rf"already holds .*{result_name}\(failure_sink="):
        run(failure_sink=used)
