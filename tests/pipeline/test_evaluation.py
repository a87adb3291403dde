"""Unit tests for the cost-vs-quality evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.policy_survey import CostQualityEvaluator
from repro.network.cost import TelemetryCostAccountant
from repro.pipeline import policies as policies_module
from repro.pipeline.evaluation import DETECTION_UNSCORED
from repro.pipeline.events import EventKind, inject_event
from repro.pipeline.policies import FixedRatePolicy, NyquistStaticPolicy
from repro.signals.generators import multi_tone
from repro.signals.noise import add_white_noise


@pytest.fixture
def reference(rng):
    trace = multi_tone([1.0 / 7200.0], duration=21600.0, sampling_rate=1.0 / 7.5,
                       amplitudes=[8.0], offset=40.0)
    return add_white_noise(trace, 0.05, rng=rng)


def make_evaluator():
    policies = [FixedRatePolicy(30.0, name="baseline"),
                NyquistStaticPolicy(production_interval=30.0)]
    return CostQualityEvaluator(policies, accountant=TelemetryCostAccountant())


class TestEvaluator:
    def test_requires_policies(self):
        with pytest.raises(ValueError):
            CostQualityEvaluator([])

    def test_requires_unique_names(self):
        with pytest.raises(ValueError):
            CostQualityEvaluator([FixedRatePolicy(30.0, name="x"),
                                  FixedRatePolicy(60.0, name="x")])

    def test_evaluate_point_appends_one_row_per_policy(self, reference):
        evaluator = make_evaluator()
        evaluator.evaluate_point("dev-1", "Link util", reference)
        blocks = list(evaluator.iter_blocks())
        assert [block.policy_name for block in blocks] == ["baseline", "nyquist-static"]
        assert all(block.device_ids.tolist() == ["dev-1"] for block in blocks)

    def test_rows_aggregate_over_points(self, reference):
        evaluator = make_evaluator()
        evaluator.evaluate_point("dev-1", "Link util", reference)
        evaluator.evaluate_point("dev-2", "Link util", reference)
        rows = evaluator.rows()
        assert len(rows) == 2
        assert all(row["points"] == 2.0 for row in rows)

    def test_nyquist_static_cheaper_than_baseline(self, reference):
        evaluator = make_evaluator()
        evaluator.evaluate_point("dev-1", "Link util", reference)
        relative = evaluator.relative_costs("baseline")
        assert relative["baseline"] == pytest.approx(1.0)
        assert relative["nyquist-static"] < 1.0

    def test_relative_costs_unknown_baseline(self, reference):
        evaluator = make_evaluator()
        evaluator.evaluate_point("dev-1", "Link util", reference)
        with pytest.raises(KeyError):
            evaluator.relative_costs("nope")

    def test_event_detection_scored(self, reference):
        evaluator = make_evaluator()
        modified, event = inject_event(reference, EventKind.STEP,
                                       reference.start_time + 0.7 * reference.duration,
                                       magnitude=30.0)
        evaluator.evaluate_point("dev-1", "Link util", modified, event)
        assert all(block.detected[0] != DETECTION_UNSCORED for block in evaluator.iter_blocks())
        row = evaluator.rows()[0]
        assert row["policy"] == "baseline"
        assert row["detection_rate"] == 1.0
        assert row["mean_detection_latency_s"] >= 0.0

    def test_event_point_lays_out_each_stream_once(self, reference, monkeypatch):
        """Scoring and detection share one layout per policy."""
        calls = []
        lay_out = policies_module._lay_out

        def counting_lay_out(*args):
            calls.append(args)
            return lay_out(*args)

        monkeypatch.setattr(policies_module, "_lay_out", counting_lay_out)
        evaluator = make_evaluator()
        modified, event = inject_event(reference, EventKind.STEP,
                                       reference.start_time + 0.7 * reference.duration,
                                       magnitude=30.0)
        evaluator.evaluate_point("dev-1", "Link util", modified, event)
        assert len(calls) == 2  # one per policy

    def test_detection_unscored_without_event(self, reference):
        evaluator = make_evaluator()
        evaluator.evaluate_point("dev-1", "Link util", reference)
        for row in evaluator.rows():
            assert np.isnan(row["detection_rate"])
            assert np.isnan(row["mean_detection_latency_s"])

    def test_summary_quality_fields(self, reference):
        evaluator = make_evaluator()
        evaluator.evaluate_point("dev-1", "Link util", reference)
        row = evaluator.rows()[0]
        assert 0.0 <= row["mean_nrmse"] < 1.0
        assert row["samples"] > 0
        assert row["total_cost"] > 0


class TestColumnarStore:
    """The evaluator's canonical storage is columnar PolicyRecordBlocks."""

    def test_blocks_back_the_rows(self, reference):
        evaluator = make_evaluator()
        evaluator.evaluate_point("dev-1", "Link util", reference)
        evaluator.evaluate_point("dev-2", "Link util", reference)
        blocks = list(evaluator.iter_blocks())
        assert len(blocks) == 4  # 2 points x 2 policies, one 1-row block each
        assert evaluator.sink.rows == 4
        assert {block.policy_name for block in blocks} == {"baseline", "nyquist-static"}
        baseline = [str(device) for block in blocks if block.policy_name == "baseline"
                    for device in block.device_ids]
        assert baseline == ["dev-1", "dev-2"]
        assert evaluator.rows()[0]["samples"] == sum(
            int(block.samples.sum()) for block in blocks
            if block.policy_name == "baseline")


class TestRelativeCostGuards:
    def test_no_points_evaluated_raises(self):
        evaluator = make_evaluator()
        assert evaluator.policies() == ["baseline", "nyquist-static"]
        assert [row["points"] for row in evaluator.rows()] == [0.0, 0.0]
        with pytest.raises(ValueError, match="'baseline'.*zero total cost"):
            evaluator.relative_costs("baseline")
