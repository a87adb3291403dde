"""Unit tests for the fleet-scale policy survey (cost vs quality at scale)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.policy_survey import (CostQualityEvaluator, PolicySurveyResult,
                                          run_policy_survey)
from repro.faults import BatchExecutionError, FaultInjectingTraceSource, FaultPlan
from repro.network.cost import TelemetryCostAccountant
from repro.network.monitoring import DeploymentSpec
from repro.network.topology import TopologySpec
from repro.pipeline.evaluation import DETECTION_UNSCORED, PolicyRecordBlock
from repro.pipeline.policies import PolicySuite
from repro.records import SpillingRecordSink
from repro.telemetry.dataset import DatasetConfig, FleetDataset

#: Columns every policy block must reproduce bit for bit across workers,
#: sinks and (for exported fleets) storage round trips.
POLICY_COLUMNS = ("device_ids", "samples", "mean_rate_hz", "nrmse", "max_abs_error",
                  "hops", "collection_cpu_us", "transmission", "storage_bytes",
                  "analysis", "detected", "detection_latency")


def assert_policy_blocks_byte_identical(left, right) -> None:
    """Column-for-column exact equality of two policy block streams."""
    left_blocks, right_blocks = list(left), list(right)
    assert len(left_blocks) == len(right_blocks)
    for a, b in zip(left_blocks, right_blocks):
        assert (a.metric_name, a.policy_name) == (b.metric_name, b.policy_name)
        for column in POLICY_COLUMNS:
            assert np.array_equal(getattr(a, column), getattr(b, column),
                                  equal_nan=getattr(a, column).dtype == np.float64), \
                (column, a.metric_name, a.policy_name)


@pytest.fixture(scope="module")
def demo_spec() -> DeploymentSpec:
    return DeploymentSpec(
        topology=TopologySpec(num_spines=2, num_leaves=2, servers_per_leaf=1),
        trace_duration=21600.0, seed=11, oversample_factor=4.0)


@pytest.fixture(scope="module")
def demo_accountant(demo_spec) -> TelemetryCostAccountant:
    return demo_spec.open().accountant()


@pytest.fixture(scope="module")
def demo_suite() -> PolicySuite:
    return PolicySuite(production_oversample=4.0, adaptive_window=2 * 3600.0)


@pytest.fixture(scope="module")
def demo_survey(demo_spec, demo_accountant, demo_suite) -> PolicySurveyResult:
    return run_policy_survey(demo_spec.open(), demo_suite, accountant=demo_accountant)


class TestRunPolicySurvey:
    def test_one_row_per_point_and_policy(self, demo_spec, demo_survey):
        points = len(demo_spec.open())
        assert len(demo_survey) == points * 3
        rows = demo_survey.rows()
        assert [row["policy"] for row in rows] == \
            ["fixed", "nyquist-static", "adaptive-dual-rate"]
        assert all(row["points"] == points for row in rows)

    def test_reproduces_paper_cost_ordering(self, demo_survey):
        """The acceptance claim: fixed > Nyquist-static > adaptive total cost
        at matched (bounded-nrmse) quality on the demo deployment."""
        relative = demo_survey.relative_costs("fixed")
        assert relative["fixed"] == pytest.approx(1.0)
        assert relative["nyquist-static"] < 1.0
        assert relative["adaptive-dual-rate"] < relative["nyquist-static"]
        by_policy = {row["policy"]: row for row in demo_survey.rows()}
        assert by_policy["fixed"]["mean_nrmse"] < 0.1
        assert by_policy["nyquist-static"]["mean_nrmse"] < 0.4
        assert by_policy["adaptive-dual-rate"]["mean_nrmse"] < 0.4

    def test_costs_are_hop_weighted(self, demo_survey, demo_accountant):
        """Transmission must reflect each node's real fabric distance."""
        for block in demo_survey.iter_blocks():
            # 64 bytes per sample, one unit per byte-hop.
            expected = block.samples * 64.0 * block.hops * 1.0
            assert np.array_equal(block.transmission, expected.astype(np.float64))
            hops = demo_accountant.hops_array([str(d) for d in block.device_ids])
            assert np.array_equal(block.hops, hops)

    def test_chunking_preserves_records(self, demo_spec, demo_accountant, demo_suite):
        source = demo_spec.open()
        whole = run_policy_survey(source, demo_suite, accountant=demo_accountant)
        chunked = run_policy_survey(source, demo_suite, accountant=demo_accountant,
                                    chunk_size=3)
        assert whole.rows() == chunked.rows()

    def test_metric_and_limit_filters(self, demo_spec, demo_accountant, demo_suite):
        result = run_policy_survey(demo_spec.open(), demo_suite,
                                   accountant=demo_accountant,
                                   metrics=["Temperature", "Link util"],
                                   limit_per_metric=2)
        assert set(result.metrics()) == {"Temperature", "Link util"}
        assert all(row["points"] == 4 for row in result.rows())

    def test_relative_costs_unknown_baseline(self, demo_survey):
        with pytest.raises(KeyError):
            demo_survey.relative_costs("nope")

    def test_rejects_bad_worker_count(self, demo_spec, demo_suite):
        with pytest.raises(ValueError, match="workers"):
            run_policy_survey(demo_spec.open(), demo_suite, workers=0)

    def test_rejects_non_empty_sink(self, demo_spec, demo_accountant, demo_suite,
                                    tmp_path):
        run_policy_survey(demo_spec.open(), demo_suite, accountant=demo_accountant,
                          metrics=["Temperature"],
                          sink=SpillingRecordSink(tmp_path / "spool"))
        with pytest.raises(ValueError, match="already holds"):
            run_policy_survey(demo_spec.open(), demo_suite, accountant=demo_accountant,
                              metrics=["Temperature"],
                              sink=SpillingRecordSink(tmp_path / "spool"))


class TestPolicyRecordBlockStorage:
    @pytest.fixture(scope="class")
    def block(self, demo_survey) -> PolicyRecordBlock:
        return next(iter(demo_survey.iter_blocks()))

    def test_rcb_round_trip(self, block, tmp_path):
        block.save_rcb(tmp_path / "block.rcb")
        loaded = PolicyRecordBlock.load_rcb(tmp_path / "block.rcb")
        assert_policy_blocks_byte_identical([block], [loaded])

    def test_empty_block_round_trip_keeps_scalars(self, tmp_path):
        empty = PolicyRecordBlock(
            metric_name="Temperature", policy_name="fixed", device_ids=[], samples=[],
            mean_rate_hz=[], nrmse=[], max_abs_error=[], hops=[], collection_cpu_us=[],
            transmission=[], storage_bytes=[], analysis=[], detected=[],
            detection_latency=[])
        empty.save_rcb(tmp_path / "block.rcb")
        loaded = PolicyRecordBlock.load_rcb(tmp_path / "block.rcb")
        assert (loaded.metric_name, loaded.policy_name) == ("Temperature", "fixed")
        assert len(loaded) == 0

    def test_corrupt_files_raise_value_error(self, tmp_path):
        rcb = tmp_path / "records-00000.rcb"
        rcb.write_bytes(b"definitely not an rcb file")
        with pytest.raises(ValueError, match="corrupt or truncated record file"):
            PolicyRecordBlock.load_rcb(rcb)


class TestPerPointDriverAgreement:
    """CostQualityEvaluator (one trace at a time, scalar ``collect``) and
    run_policy_survey (batched ``evaluate_batch``) store the same rows."""

    OUTCOME_COLUMNS = ("samples", "mean_rate_hz", "nrmse", "max_abs_error", "hops",
                       "collection_cpu_us", "transmission", "storage_bytes", "analysis")

    @staticmethod
    def rows_by_key(result: PolicySurveyResult) -> dict[tuple[str, str], dict]:
        rows = {}
        for block in result.iter_blocks():
            for index, device in enumerate(block.device_ids):
                rows[(block.policy_name, str(device))] = {
                    column: getattr(block, column)[index]
                    for column in (*TestPerPointDriverAgreement.OUTCOME_COLUMNS,
                                   "detected", "detection_latency")}
        return rows

    def test_drivers_agree_row_for_row(self):
        source = DeploymentSpec(TopologySpec(2, 2, 1), trace_duration=21600.0,
                                seed=8).open()
        accountant = source.accountant()
        traces = list(source.traces("Link util"))
        suite = PolicySuite(production_oversample=4.0)
        policies = suite.build(traces[0][1].interval)
        assert len(policies) == 3
        per_point = CostQualityEvaluator(policies, accountant=accountant)
        for pair, reference in traces:
            per_point.evaluate_point(pair.device.device_id, "Link util", reference)
        fleet = run_policy_survey(source, suite, accountant=accountant,
                                  metrics=["Link util"])

        left, right = self.rows_by_key(per_point), self.rows_by_key(fleet)
        assert left.keys() == right.keys()
        assert len(left) == len(traces) * len(policies)
        for key, row in left.items():
            for column in self.OUTCOME_COLUMNS:
                assert row[column] == right[key][column], (key, column)
            for scored in (row, right[key]):
                assert scored["detected"] == DETECTION_UNSCORED
                assert np.isnan(scored["detection_latency"])


class TestPolicyWorkerEquivalence:
    """The multi-worker policy survey must reproduce workers=1 byte for
    byte: same blocks, same order, any sink -- on a synthetic fleet, a
    deployment source, and an exported measured fleet."""

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        dataset = FleetDataset(DatasetConfig(pair_count=28, seed=5,
                                             trace_duration=21600.0))
        measured = dataset.export(tmp_path_factory.mktemp("measured") / "fleet")
        return dataset, measured

    @pytest.fixture(scope="class")
    def fleet_suite(self) -> PolicySuite:
        # Fleet traces are generated at production rate: oversample 1.
        return PolicySuite(production_oversample=1.0, adaptive_window=2 * 3600.0)

    def test_deployment_workers_byte_identical(self, demo_spec, demo_accountant,
                                               demo_suite):
        source = demo_spec.open()
        single = run_policy_survey(source, demo_suite, accountant=demo_accountant,
                                   chunk_size=3)
        pooled = run_policy_survey(source, demo_suite, accountant=demo_accountant,
                                   chunk_size=3, workers=2)
        assert_policy_blocks_byte_identical(single.iter_blocks(), pooled.iter_blocks())
        assert single.rows() == pooled.rows()

    def test_synthetic_fleet_workers_byte_identical(self, fleet, fleet_suite):
        dataset, _ = fleet
        single = run_policy_survey(dataset, fleet_suite, chunk_size=3)
        pooled = run_policy_survey(dataset, fleet_suite, chunk_size=3, workers=4)
        assert_policy_blocks_byte_identical(single.iter_blocks(), pooled.iter_blocks())

    def test_measured_fleet_workers_byte_identical(self, fleet, fleet_suite):
        """Worker batch specs on the measured path are manifest file-offset
        slices; the reassembled records must equal the in-memory run."""
        dataset, measured = fleet
        memory = run_policy_survey(dataset, fleet_suite, chunk_size=3)
        recorded = run_policy_survey(measured, fleet_suite, chunk_size=3, workers=2)
        assert_policy_blocks_byte_identical(memory.iter_blocks(), recorded.iter_blocks())
        assert memory.rows() == recorded.rows()

    def test_mixed_shape_fleet_workers_byte_identical(self, mixed_shape_fleet,
                                                       fleet_suite):
        """A metric polled at two rates cuts the same blocks at any worker count."""
        single = run_policy_survey(mixed_shape_fleet, fleet_suite, chunk_size=4)
        pooled = run_policy_survey(mixed_shape_fleet, fleet_suite, chunk_size=4,
                                   workers=2)
        assert_policy_blocks_byte_identical(single.iter_blocks(), pooled.iter_blocks())
        assert single.rows() == pooled.rows()

    def test_workers_with_spill_sink_and_reopen(self, fleet, fleet_suite, tmp_path):
        dataset, measured = fleet
        memory = run_policy_survey(dataset, fleet_suite, chunk_size=4)
        spilled = run_policy_survey(measured, fleet_suite, chunk_size=4, workers=2,
                                    sink=SpillingRecordSink(tmp_path / "spool"))
        assert_policy_blocks_byte_identical(memory.iter_blocks(), spilled.iter_blocks())
        reopened = PolicySurveyResult(sink=SpillingRecordSink(tmp_path / "spool"))
        assert reopened.rows() == memory.rows()
        assert reopened.relative_costs("fixed") == memory.relative_costs("fixed")
        assert reopened.policies() == memory.policies()

# ----------------------------------------------------------------------
# Quarantine mode (on_error="quarantine") under a seeded fault plan
# ----------------------------------------------------------------------
def assert_failure_blocks_byte_identical(left, right) -> None:
    """Column-for-column exact equality of two failure block streams."""
    left_blocks, right_blocks = list(left), list(right)
    assert len(left_blocks) == len(right_blocks)
    for a, b in zip(left_blocks, right_blocks):
        for column in ("device_ids", "metric_names", "stages", "error_types",
                       "messages", "provenances"):
            assert np.array_equal(getattr(a, column), getattr(b, column)), column


class TestPolicyQuarantineEquivalence:
    """``on_error="quarantine"`` must drop exactly the faulty pairs from
    every policy's rows, keep healthy evaluations bit-identical to a
    clean run, and reproduce records *and* failure records byte for byte
    at any worker count and through any sink."""

    PLAN = FaultPlan(seed=3, fraction=0.18,
                     kinds=("corrupt-trace", "truncated-trace"))

    @pytest.fixture(scope="class")
    def dataset(self):
        return FleetDataset(DatasetConfig(pair_count=28, seed=5,
                                          trace_duration=21600.0))

    @pytest.fixture(scope="class")
    def suite(self) -> PolicySuite:
        return PolicySuite(production_oversample=1.0, adaptive_window=2 * 3600.0)

    @pytest.fixture(scope="class")
    def chaotic(self, dataset):
        return FaultInjectingTraceSource(dataset, self.PLAN)

    @pytest.fixture(scope="class")
    def faulty_keys(self, dataset):
        return {pair.key for pair in dataset.pairs()
                if self.PLAN.affects(*pair.key)}

    @pytest.fixture(scope="class")
    def clean_survey(self, dataset, suite):
        return run_policy_survey(dataset, suite, chunk_size=6)

    @pytest.fixture(scope="class")
    def quarantined_survey(self, chaotic, suite):
        return run_policy_survey(chaotic, suite, chunk_size=6,
                                 on_error="quarantine")

    def test_seeded_plan_actually_injects(self, dataset, faulty_keys):
        assert 0 < len(faulty_keys) < len(dataset.pairs())

    def test_raise_mode_fails_fast(self, chaotic, suite):
        with pytest.raises(ValueError, match="corrupt or truncated"):
            run_policy_survey(chaotic, suite, chunk_size=6)

    def test_raise_mode_fails_fast_with_workers(self, chaotic, suite):
        with pytest.raises(BatchExecutionError, match="corrupt or truncated"):
            run_policy_survey(chaotic, suite, chunk_size=6, workers=2)

    def test_every_fault_quarantined_exactly_once(self, quarantined_survey,
                                                  faulty_keys):
        failures = quarantined_survey.quarantined
        assert len(failures) == len(faulty_keys)
        assert {(f.metric_name, f.device_id) for f in failures} == faulty_keys
        assert all(f.stage == "trace" for f in failures)

    def test_row_accounting(self, clean_survey, quarantined_survey, faulty_keys):
        assert quarantined_survey.policies() == clean_survey.policies()
        clean_points = {row["policy"]: row["points"]
                        for row in clean_survey.rows()}
        for row in quarantined_survey.rows():
            assert row["points"] == clean_points[row["policy"]] - len(faulty_keys)

    def test_healthy_evaluations_byte_identical_to_clean_run(
            self, clean_survey, quarantined_survey, faulty_keys):
        columns = [spec.name for spec in PolicyRecordBlock._SCHEMA.columns
                   if spec.name != "device_ids"]

        def rows(result):
            return {(block.policy_name, block.metric_name, str(device)):
                    [getattr(block, column)[index] for column in columns]
                    for block in result.iter_blocks()
                    for index, device in enumerate(block.device_ids)}
        clean, salvaged = rows(clean_survey), rows(quarantined_survey)
        assert set(clean) - set(salvaged) == {
            (policy, metric, device)
            for policy in clean_survey.policies()
            for metric, device in faulty_keys}
        for key, row in salvaged.items():
            for column, value, twin in zip(columns, row, clean[key]):
                assert np.array_equal(value, twin, equal_nan=True), (key, column)

    def test_worker_counts_byte_identical(self, chaotic, suite,
                                          quarantined_survey):
        pooled = run_policy_survey(chaotic, suite, chunk_size=6, workers=2,
                                   on_error="quarantine")
        assert_policy_blocks_byte_identical(quarantined_survey.iter_blocks(),
                                            pooled.iter_blocks())
        assert_failure_blocks_byte_identical(
            quarantined_survey.failure_sink.blocks(),
            pooled.failure_sink.blocks())

    def test_spilling_sinks_byte_identical(self, chaotic, suite,
                                           quarantined_survey, tmp_path):
        spilled = run_policy_survey(
            chaotic, suite, chunk_size=6, workers=2, on_error="quarantine",
            sink=SpillingRecordSink(tmp_path / "records"),
            failure_sink=SpillingRecordSink(tmp_path / "failures"))
        assert_policy_blocks_byte_identical(quarantined_survey.iter_blocks(),
                                            spilled.iter_blocks())
        assert_failure_blocks_byte_identical(
            quarantined_survey.failure_sink.blocks(),
            spilled.failure_sink.blocks())
        reopened = PolicySurveyResult(
            failure_sink=SpillingRecordSink(tmp_path / "failures"))
        assert reopened.quarantined_count == quarantined_survey.quarantined_count

    def test_transient_io_error_recovers_via_retry(self, dataset, suite,
                                                   clean_survey, tmp_path):
        plan = FaultPlan(seed=4, fraction=0.2, kinds=("io-error",),
                         io_error_opens=1, state_dir=str(tmp_path / "state"))
        chaotic = FaultInjectingTraceSource(dataset, plan)
        assert any(plan.affects(*pair.key) for pair in dataset.pairs())
        survived = run_policy_survey(chaotic, suite, chunk_size=6,
                                     on_error="quarantine",
                                     retry_sleep=lambda delay: None)
        assert survived.quarantined_count == 0
        assert_policy_blocks_byte_identical(clean_survey.iter_blocks(),
                                            survived.iter_blocks())

    def test_worker_crash_recovers_without_duplicates(self, dataset, suite,
                                                      tmp_path):
        metric = dataset.metric_names()[0]
        plan = FaultPlan(seed=6, fraction=0.0, crash_slices=((metric, 0),),
                         state_dir=str(tmp_path / "state"))
        chaotic = FaultInjectingTraceSource(dataset, plan)
        crashed = run_policy_survey(chaotic, suite, chunk_size=2, workers=2,
                                    on_error="quarantine",
                                    retry_sleep=lambda delay: None)
        assert crashed.quarantined_count == 0
        clean = run_policy_survey(dataset, suite, chunk_size=2, workers=2)
        assert clean.rows() == crashed.rows()
        assert_policy_blocks_byte_identical(clean.iter_blocks(),
                                            crashed.iter_blocks())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_shape_salvage_quarantines_only_the_corrupt_pair(
            self, suite, mixed_shape_fleet, corrupt_mixed_shape_fleet, workers):
        """Salvaging a slice that mixes polling rates finishes, blames only the
        corrupt pair and keeps every healthy row identical to a clean run."""
        corrupt, corrupt_key = corrupt_mixed_shape_fleet
        salvaged = run_policy_survey(corrupt, suite, chunk_size=4, workers=workers,
                                     on_error="quarantine")
        assert [(f.metric_name, f.device_id, f.stage) for f in salvaged.quarantined] == \
            [(*corrupt_key, "trace")]

        def rows(result):
            return {(block.policy_name, block.metric_name, str(device)):
                    tuple(getattr(block, column)[index].tobytes()
                          for column in POLICY_COLUMNS[1:])
                    for block in result.iter_blocks()
                    for index, device in enumerate(block.device_ids)}
        clean = rows(run_policy_survey(mixed_shape_fleet, suite, chunk_size=4))
        healthy = rows(salvaged)
        assert set(clean) - set(healthy) == {(policy, *corrupt_key)
                                             for policy in salvaged.policies()}
        assert all(clean[key] == value for key, value in healthy.items())
