"""Unit tests for the fleet survey (Figures 1, 4, 5 and the headline stats)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from fleets import ReshapedFleet
from repro.analysis.survey import (OVERSAMPLE_THRESHOLD, PairCategory, RecordBlock,
                                   SpillingRecordSink, SurveyResult, _block_from_estimates,
                                   run_survey, run_windowed_survey)
from repro.core.nyquist import DEFAULT_ALIASED_BAND_FRACTION, NyquistEstimator
from repro.faults import BatchExecutionError, FaultInjectingTraceSource, FaultPlan
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.measured import MeasuredFleetDataset


def assert_blocks_byte_identical(left, right) -> None:
    """Column-for-column exact equality of two block streams."""
    left_blocks, right_blocks = list(left), list(right)
    assert len(left_blocks) == len(right_blocks)
    for a, b in zip(left_blocks, right_blocks):
        assert a.metric_name == b.metric_name
        assert np.array_equal(a.device_ids, b.device_ids)
        for column in ("current_rate", "nyquist_rate", "reduction_ratio",
                       "true_nyquist_rate", "trace_duration"):
            assert np.array_equal(getattr(a, column), getattr(b, column),
                                  equal_nan=True), column
        assert np.array_equal(a.category, b.category)
        assert np.array_equal(a.reliable, b.reliable)


@pytest.fixture(scope="module")
def survey():
    dataset = FleetDataset(DatasetConfig(pair_count=84, seed=5))
    return run_survey(dataset)


class TestRunSurvey:
    def test_one_record_per_pair(self, survey):
        assert len(survey) == 84

    def test_records_carry_metric_and_device(self, survey):
        record = survey.records[0]
        assert record.metric_name
        assert record.device_id
        assert record.current_rate > 0

    def test_limit_per_metric(self):
        dataset = FleetDataset(DatasetConfig(pair_count=84, seed=5))
        limited = run_survey(dataset, limit_per_metric=2)
        assert len(limited) == 2 * 14

    def test_metric_subset(self):
        dataset = ReshapedFleet(DatasetConfig(pair_count=84, seed=5),
                                metrics=("Temperature", "Link util"))
        result = run_survey(dataset)
        assert set(result.metrics()) == {"Temperature", "Link util"}


class TestAggregations:
    def test_most_pairs_oversampled(self, survey):
        headline = survey.headline()
        assert headline["oversampled_fraction"] > 0.7
        # The three categories partition the survey.
        assert headline["oversampled_fraction"] + headline["marginal_fraction"] + \
            headline["aliased_suspect_fraction"] == pytest.approx(1.0)

    def test_headline_separates_marginal_from_aliased(self, survey):
        """Regression: marginal (reliable) pairs used to be folded into the
        suspect fraction, overstating the paper's ~11 % needs-inspection claim."""
        headline = survey.headline()
        marginal = sum(r.category is PairCategory.MARGINAL for r in survey.records)
        suspect = sum(r.category is PairCategory.ALIASED_SUSPECT for r in survey.records)
        assert headline["marginal_fraction"] == pytest.approx(marginal / len(survey))
        assert headline["aliased_suspect_fraction"] == pytest.approx(suspect / len(survey))
        # The legacy key remains the (conflated) aggregate of the two.
        assert headline["undersampled_or_suspect_fraction"] == \
            pytest.approx(headline["marginal_fraction"] + headline["aliased_suspect_fraction"])
        # The suspect bucket contains no reliable pairs.
        assert all(not r.reliable for r in survey.records
                   if r.category is PairCategory.ALIASED_SUSPECT)

    def test_figure1_fractions_in_unit_interval(self, survey):
        fractions = survey.oversampled_fraction_by_metric()
        assert set(fractions) == set(survey.metrics())
        for value in fractions.values():
            assert 0.0 <= value <= 1.0

    def test_figure4_ratios_exclude_unreliable(self, survey):
        ratios = survey.reduction_ratios()
        assert np.all(np.isfinite(ratios))
        assert np.all(ratios > 0)
        assert len(ratios) == sum(r.reliable for r in survey.records)

    def test_figure4_per_metric_filter(self, survey):
        all_ratios = survey.reduction_ratios()
        temperature = survey.reduction_ratios("Temperature")
        assert len(temperature) <= len(all_ratios)

    def test_figure5_rates_positive(self, survey):
        for metric in survey.metrics():
            rates = survey.nyquist_rates(metric)
            assert np.all(rates > 0)
            # Estimated rates never exceed the production sampling rate.
            records = [record for record in survey.records if record.metric_name == metric]
            assert np.all(rates <= max(record.current_rate for record in records) + 1e-12)

    def test_heavy_tail_of_reduction_ratios(self, survey):
        headline = survey.headline()
        assert headline["reducible_10x_fraction"] > 0.4
        assert headline["reducible_100x_fraction"] > 0.1

    def test_temperature_range_reported(self, survey):
        headline = survey.headline()
        assert headline["temperature_nyquist_min_hz"] <= headline["temperature_nyquist_max_hz"]

    def test_estimation_accuracy_near_truth(self, survey):
        accuracy = survey.estimation_accuracy()
        assert accuracy["pairs"] > 0
        # The median estimate should be within a factor of ~4 of the planted
        # ground-truth bandwidth (the estimator sees quantisation + noise).
        assert 0.25 <= accuracy["median_ratio"] <= 4.0

    def test_empty_survey_headline(self):
        assert SurveyResult().headline() == {"pairs": 0.0}

    def test_categories_are_consistent(self, survey):
        for record in survey.records:
            if record.category is PairCategory.ALIASED_SUSPECT:
                assert not record.reliable
            if record.category is PairCategory.OVERSAMPLED:
                assert record.reduction_ratio > OVERSAMPLE_THRESHOLD

    def test_backend_equivalence(self, survey_oracle):
        """The batched survey must reproduce the per-trace reference estimator."""
        dataset = FleetDataset(DatasetConfig(pair_count=84, seed=5))
        scalar = survey_oracle(dataset)
        batched = run_survey(dataset)
        assert len(scalar.records) == len(batched.records)
        for a, b in zip(scalar.records, batched.records):
            assert (a.metric_name, a.device_id) == (b.metric_name, b.device_id)
            assert a.category is b.category
            assert a.reliable == b.reliable
            assert np.isclose(a.nyquist_rate, b.nyquist_rate)
            if a.reliable:
                assert np.isclose(a.reduction_ratio, b.reduction_ratio)
            assert a.current_rate == b.current_rate

    def test_batched_chunking_preserves_records(self):
        dataset = FleetDataset(DatasetConfig(pair_count=56, seed=5))
        whole = run_survey(dataset, chunk_size=1024)
        chunked = run_survey(dataset, chunk_size=3)
        assert [(r.metric_name, r.device_id, r.nyquist_rate) for r in whole.records] == \
            [(r.metric_name, r.device_id, r.nyquist_rate) for r in chunked.records]

    def test_custom_estimator_is_used(self):
        dataset = FleetDataset(DatasetConfig(pair_count=28, seed=5))
        strict = run_survey(dataset, estimator=NyquistEstimator(energy_fraction=0.9999))
        default = run_survey(dataset)
        # A stricter energy threshold never lowers the estimated rates.
        strict_rates = {(r.metric_name, r.device_id): r.nyquist_rate
                        for r in strict.records if r.reliable}
        for record in default.records:
            key = (record.metric_name, record.device_id)
            if record.reliable and key in strict_rates:
                assert strict_rates[key] >= record.nyquist_rate - 1e-12


class TestOversampleThreshold:
    """Only a reliable pair whose ratio exceeds the threshold is over-sampled."""

    @pytest.mark.parametrize("ratio, reliable, category", [
        (1.0, True, PairCategory.MARGINAL),
        (OVERSAMPLE_THRESHOLD, True, PairCategory.MARGINAL),
        (float(np.nextafter(OVERSAMPLE_THRESHOLD, np.inf)), True, PairCategory.OVERSAMPLED),
        (8.0, False, PairCategory.ALIASED_SUSPECT),
    ], ids=["no-headroom", "at-threshold", "just-above", "unreliable"])
    def test_classification(self, ratio, reliable, category):
        pair = SimpleNamespace(device=SimpleNamespace(device_id="dev"),
                               parameters=SimpleNamespace(true_nyquist_rate=0.001))
        estimate = SimpleNamespace(nyquist_rate=0.001, reduction_ratio=ratio, reliable=reliable)
        block = _block_from_estimates("Temperature", [pair], [estimate], 1 / 300, 86400.0)
        record, = block.to_records()
        assert record.category is category


class TestColumnarStorage:
    def test_records_view_matches_blocks(self, survey):
        records = survey.records
        assert len(records) == len(survey)
        total = sum(len(block) for block in survey.iter_blocks())
        assert total == len(survey)
        # The per-pair view carries the same data as the columns.
        index = 0
        for block in survey.iter_blocks():
            for offset in range(len(block)):
                record = records[index]
                assert record.metric_name == block.metric_name
                assert record.device_id == str(block.device_ids[offset])
                assert record.nyquist_rate == block.nyquist_rate[offset]
                index += 1

    def test_block_rcb_round_trip(self, survey, tmp_path):
        block = next(iter(survey.iter_blocks()))
        block.save_rcb(tmp_path / "block.rcb")
        loaded = RecordBlock.load_rcb(tmp_path / "block.rcb")
        assert_blocks_byte_identical([block], [loaded])

    @staticmethod
    def _empty_block(metric_name: str) -> RecordBlock:
        return RecordBlock(metric_name=metric_name, device_ids=[], current_rate=[],
                           nyquist_rate=[], reduction_ratio=[], category=[],
                           reliable=[], true_nyquist_rate=[], trace_duration=[])

    def test_empty_block_round_trip_keeps_metric(self, tmp_path):
        """A zero-row block has no data row to carry its metric name; the
        rcb header keeps it."""
        block = self._empty_block("Temperature")
        path = tmp_path / "block.rcb"
        block.save_rcb(path)
        loaded = RecordBlock.load_rcb(path)
        assert loaded.metric_name == "Temperature"
        assert len(loaded) == 0
        assert_blocks_byte_identical([block], [loaded])

    def test_load_rcb_on_corrupt_file_raises_value_error(self, tmp_path):
        path = tmp_path / "records-00000.rcb"
        path.write_bytes(b"definitely not an rcb file")
        with pytest.raises(ValueError, match="corrupt or truncated record file"):
            RecordBlock.load_rcb(path)

    def test_load_rcb_on_truncated_file_raises_value_error(self, survey, tmp_path):
        block = next(iter(survey.iter_blocks()))
        path = tmp_path / "records-00000.rcb"
        block.save_rcb(path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValueError, match="corrupt or truncated record file"):
            RecordBlock.load_rcb(path)

class TestParallelWorkers:
    def test_worker_count_invariance(self):
        """workers=1 and workers=4 must produce byte-identical records."""
        dataset = FleetDataset(DatasetConfig(pair_count=56, seed=5))
        single = run_survey(dataset, workers=1, chunk_size=3)
        pooled = run_survey(dataset, workers=4, chunk_size=3)
        assert len(single) == len(pooled) == 56
        assert_blocks_byte_identical(single.iter_blocks(), pooled.iter_blocks())
        assert single.headline() == pooled.headline()

    def test_workers_respect_limit_and_metrics(self):
        dataset = ReshapedFleet(DatasetConfig(pair_count=84, seed=5),
                                metrics=("Temperature", "Link util"))
        single = run_survey(dataset, workers=1, limit_per_metric=2)
        pooled = run_survey(dataset, workers=2, limit_per_metric=2)
        assert len(single) == len(pooled) == 4
        assert_blocks_byte_identical(single.iter_blocks(), pooled.iter_blocks())

    def test_mixed_shape_worker_count_invariance(self, mixed_shape_fleet, survey_oracle):
        """A metric polled at two rates cuts the same blocks at any worker count."""
        single = run_survey(mixed_shape_fleet, workers=1, chunk_size=4)
        pooled = run_survey(mixed_shape_fleet, workers=2, chunk_size=4)
        assert_blocks_byte_identical(single.iter_blocks(), pooled.iter_blocks())
        # Each slice of the mixed metric splits at its shape change.
        assert [len(block) for block in single.iter_blocks()
                if block.metric_name == "Link util"] == [2, 2, 2, 2]
        reference = survey_oracle(mixed_shape_fleet)
        assert [r.current_rate for r in single.records] == \
            [r.current_rate for r in reference.records]

    def test_rejects_bad_worker_count(self):
        dataset = FleetDataset(DatasetConfig(pair_count=14, seed=5))
        with pytest.raises(ValueError, match="workers"):
            run_survey(dataset, workers=0)


class TestSpillToDisk:
    def test_spilled_aggregations_identical_to_memory(self, tmp_path):
        """The out-of-core path must aggregate exactly like the in-memory path."""
        dataset = FleetDataset(DatasetConfig(pair_count=56, seed=5))
        sink = SpillingRecordSink(tmp_path / "spool")
        spilled = run_survey(dataset, chunk_size=5, sink=sink)
        memory = run_survey(dataset, chunk_size=5)

        assert len(sink.files) > 1  # the spill path was actually exercised
        assert spilled.headline() == memory.headline()
        assert spilled.oversampled_fraction_by_metric() == \
            memory.oversampled_fraction_by_metric()
        assert spilled.estimation_accuracy() == memory.estimation_accuracy()
        for metric in memory.metrics():
            assert np.array_equal(spilled.nyquist_rates(metric),
                                  memory.nyquist_rates(metric))
            assert np.array_equal(spilled.reduction_ratios(metric),
                                  memory.reduction_ratios(metric))
        assert_blocks_byte_identical(spilled.iter_blocks(), memory.iter_blocks())

    def test_spill_directory_reopens(self, tmp_path):
        """A spilled survey can be re-opened from its directory in a new result."""
        dataset = FleetDataset(DatasetConfig(pair_count=28, seed=5))
        original = run_survey(dataset, chunk_size=4,
                              sink=SpillingRecordSink(tmp_path / "spool"))
        assert all(path.suffix == ".rcb" for path in original.sink.files)
        reopened = SurveyResult(sink=SpillingRecordSink(tmp_path / "spool"))
        assert len(reopened) == len(original)
        assert reopened.metrics() == original.metrics()
        assert reopened.headline() == original.headline()

    def test_run_survey_rejects_non_empty_sink(self, tmp_path):
        """Regression: re-running a survey into a used spill directory must
        fail loudly instead of silently merging duplicate records."""
        dataset = FleetDataset(DatasetConfig(pair_count=14, seed=5))
        run_survey(dataset, sink=SpillingRecordSink(tmp_path / "spool"))
        with pytest.raises(ValueError, match="already holds"):
            run_survey(dataset, sink=SpillingRecordSink(tmp_path / "spool"))

    def test_spill_with_workers(self, tmp_path):
        """Spilling composes with the worker pool (parent-side sink)."""
        dataset = FleetDataset(DatasetConfig(pair_count=28, seed=5))
        spilled = run_survey(dataset, workers=2, chunk_size=4,
                             sink=SpillingRecordSink(tmp_path / "spool"))
        memory = run_survey(dataset, workers=1, chunk_size=4)
        assert spilled.headline() == memory.headline()
        assert_blocks_byte_identical(spilled.iter_blocks(), memory.iter_blocks())


class TestMeasuredSurveyEquivalence:
    """The measured (file-backed) path must reproduce the in-memory survey
    byte for byte: same blocks, same order, any worker count or sink."""

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        dataset = FleetDataset(DatasetConfig(pair_count=56, seed=5))
        measured = dataset.export(tmp_path_factory.mktemp("measured") / "fleet")
        return dataset, measured

    def test_single_worker_byte_identical(self, fleet):
        dataset, measured = fleet
        memory = run_survey(dataset, chunk_size=3)
        recorded = run_survey(measured, chunk_size=3)
        assert len(recorded) == len(memory) == 56
        assert_blocks_byte_identical(memory.iter_blocks(), recorded.iter_blocks())
        assert memory.headline() == recorded.headline()

    def test_multi_worker_byte_identical(self, fleet):
        """Worker batch specs on the measured path are manifest file-offset
        slices; the reassembled records must equal the in-memory survey."""
        dataset, measured = fleet
        memory = run_survey(dataset, chunk_size=3)
        pooled = run_survey(measured, workers=4, chunk_size=3)
        assert_blocks_byte_identical(memory.iter_blocks(), pooled.iter_blocks())
        assert memory.headline() == pooled.headline()

    def test_workers_with_spill_sink(self, fleet, tmp_path):
        dataset, measured = fleet
        memory = run_survey(dataset, chunk_size=4)
        spilled = run_survey(measured, workers=2, chunk_size=4,
                             sink=SpillingRecordSink(tmp_path / "spool"))
        assert_blocks_byte_identical(memory.iter_blocks(), spilled.iter_blocks())
        assert memory.estimation_accuracy() == spilled.estimation_accuracy()

    def test_metric_and_limit_filters(self, fleet, tmp_path):
        dataset, _ = fleet
        subset = ReshapedFleet(dataset.config, metrics=("Temperature", "Link util"))
        memory = run_survey(subset, limit_per_metric=2)
        recorded = run_survey(subset.export(tmp_path / "subset"), limit_per_metric=2)
        assert set(recorded.metrics()) == {"Temperature", "Link util"}
        assert_blocks_byte_identical(memory.iter_blocks(), recorded.iter_blocks())

    def test_csv_trace_files_byte_identical(self, tmp_path):
        dataset = FleetDataset(DatasetConfig(pair_count=28, seed=5))
        measured = dataset.export(tmp_path / "fleet", fmt="csv")
        memory = run_survey(dataset, chunk_size=4)
        recorded = run_survey(measured, workers=2, chunk_size=4)
        assert_blocks_byte_identical(memory.iter_blocks(), recorded.iter_blocks())

    def test_reopened_directory_surveys_identically(self, fleet):
        dataset, measured = fleet
        reopened = MeasuredFleetDataset(measured.directory)
        assert_blocks_byte_identical(run_survey(dataset).iter_blocks(),
                                     run_survey(reopened).iter_blocks())

    def test_windowed_survey_runs_on_measured_fleet(self, fleet):
        dataset, measured = fleet
        from_memory = run_windowed_survey(dataset, limit_per_metric=1)
        from_disk = run_windowed_survey(measured, limit_per_metric=1)
        assert from_memory == from_disk


#: Metrics whose broadband variant genuinely fills the measurable band
#: (continuous gauges/counters); sparse burst metrics (drops, discards,
#: errors) stay low-band even when flagged broadband.
CONTINUOUS_METRICS = ("Temperature", "Link util", "Memory usage", "5-pct CPU util",
                      "Unicast bytes", "Multicast bytes", "Lossy paths")


class TestAliasedBandCalibration:
    def test_default_is_calibrated_below_one(self):
        assert DEFAULT_ALIASED_BAND_FRACTION == 0.9
        assert NyquistEstimator().aliased_band_fraction == DEFAULT_ALIASED_BAND_FRACTION

    def test_planted_broadband_pairs_are_refused(self):
        """Regression: the strict 1.0 default never fired on day-length
        synthetic traces -- planted broadband pairs came back MARGINAL
        instead of reproducing the paper's "record -1" behaviour."""
        dataset = ReshapedFleet(DatasetConfig(pair_count=168, seed=11),
                                metrics=CONTINUOUS_METRICS, broadband_fraction=1.0)
        result = run_survey(dataset)
        assert len(result) == 84
        assert all(record.category is PairCategory.ALIASED_SUSPECT
                   for record in result.records)

    def test_clean_pairs_are_never_refused(self):
        """The calibrated default must not flag band-limited pairs."""
        dataset = ReshapedFleet(DatasetConfig(pair_count=84, seed=11), broadband_fraction=0.0)
        result = run_survey(dataset)
        assert not any(record.category is PairCategory.ALIASED_SUSPECT
                       for record in result.records)

    def test_strict_rule_still_available(self):
        dataset = ReshapedFleet(DatasetConfig(pair_count=56, seed=11),
                                metrics=CONTINUOUS_METRICS, broadband_fraction=1.0)
        strict = run_survey(dataset, estimator=NyquistEstimator(aliased_band_fraction=1.0))
        calibrated = run_survey(dataset)
        strict_suspects = sum(r.category is PairCategory.ALIASED_SUSPECT
                              for r in strict.records)
        calibrated_suspects = sum(r.category is PairCategory.ALIASED_SUSPECT
                                  for r in calibrated.records)
        assert calibrated_suspects > strict_suspects


#: The sparse burst metrics of the catalogue: drops, discards and error
#: counts, whose traces are near-zero baselines with isolated episodes.
BURST_METRICS = ("Unicast drops", "Multicast drops", "In-bound discards",
                 "Out-bound discards", "FCS errors")


class TestBurstAliasingRegression:
    """Burst-aware aliasing behaviour of the calibrated refusal rule.

    Sparse burst metrics (drops/discards/errors) planted as "broadband"
    do *not* actually fill the measurable band the way continuous
    broadband gauges do -- their energy stays concentrated in isolated
    episodes, so the §3.2 energy cut-off lands below the calibrated
    ``aliased_band_fraction=0.9`` edge for the overwhelming majority of
    pairs.  Today's intended behaviour, pinned here against future
    regressions of the rule or the burst models: such pairs come back
    RELIABLE (OVERSAMPLED/MARGINAL) rather than refused, while continuous
    broadband pairs are still refused wholesale.
    """

    @pytest.fixture(scope="class")
    def burst_survey(self):
        dataset = ReshapedFleet(DatasetConfig(pair_count=140, seed=7),
                                metrics=BURST_METRICS, broadband_fraction=1.0)
        return run_survey(dataset)

    def test_planted_burst_pairs_stay_predominantly_reliable(self, burst_survey):
        records = burst_survey.records
        assert len(records) == 50
        refused = sum(r.category is PairCategory.ALIASED_SUSPECT for r in records)
        # The calibrated rule must not refuse bursty metrics wholesale:
        # at most a quarter of planted pairs (the rare trace whose bursts
        # genuinely whiten the whole band) may land in ALIASED_SUSPECT.
        assert refused <= len(records) // 4
        reliable = [r for r in records if r.reliable]
        assert len(reliable) >= 3 * len(records) // 4
        assert all(r.category in (PairCategory.OVERSAMPLED, PairCategory.MARGINAL)
                   for r in reliable)

    def test_some_fully_whitened_bursts_are_still_caught(self, burst_survey):
        # The rule is calibrated, not blind: a planted-broadband burst
        # fleet still produces *some* refusals (drop to zero and the
        # refusal rule has effectively stopped firing on bursty traces,
        # which would be its own regression).
        refused = sum(r.category is PairCategory.ALIASED_SUSPECT
                      for r in burst_survey.records)
        assert refused >= 1

    def test_contrast_continuous_broadband_is_refused_wholesale(self):
        dataset = ReshapedFleet(DatasetConfig(pair_count=140, seed=7),
                                metrics=("Temperature", "Link util"), broadband_fraction=1.0)
        result = run_survey(dataset)
        assert len(result) == 20
        assert all(r.category is PairCategory.ALIASED_SUSPECT for r in result.records)

    def test_clean_burst_pairs_are_reliable_too(self):
        # Without planted broadband the burst metrics must survey cleanly
        # (no refusals at all): episodes alone do not trip the rule.
        dataset = ReshapedFleet(DatasetConfig(pair_count=70, seed=7),
                                metrics=BURST_METRICS, broadband_fraction=0.0)
        result = run_survey(dataset)
        assert len(result) == 25
        assert all(r.reliable for r in result.records)


class TestWindowedSurvey:
    def test_fleet_windowed_sweep(self):
        dataset = FleetDataset(DatasetConfig(pair_count=28, seed=5))
        summaries = run_windowed_survey(dataset, limit_per_metric=1)
        assert len(summaries) == 14
        for summary in summaries:
            assert summary.reliable_windows <= summary.windows
            if summary.reliable_windows:
                assert summary.min_rate <= summary.mean_rate <= summary.max_rate
        # Day-length traces admit a dense 6h/5min sweep on most metrics.
        assert sum(s.windows > 0 for s in summaries) >= 10

    def test_metric_restriction(self):
        dataset = ReshapedFleet(DatasetConfig(pair_count=28, seed=5),
                                metrics=("Temperature",))
        summaries = run_windowed_survey(dataset, limit_per_metric=2)
        assert len(summaries) == 2
        assert all(s.metric_name == "Temperature" for s in summaries)


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


class TestQuarantineEquivalence:
    """``on_error="quarantine"`` must complete with every healthy pair's
    record bit-identical to a clean run, every injected fault accounted
    for exactly once, at any worker count and through any sink."""

    PLAN = FaultPlan(seed=3, fraction=0.15,
                     kinds=("corrupt-trace", "truncated-trace"))

    @pytest.fixture(scope="class")
    def dataset(self):
        return FleetDataset(DatasetConfig(pair_count=56, seed=5))

    @pytest.fixture(scope="class")
    def chaotic(self, dataset):
        return FaultInjectingTraceSource(dataset, self.PLAN)

    @pytest.fixture(scope="class")
    def faulty_keys(self, dataset):
        return {pair.key for pair in dataset.pairs()
                if self.PLAN.affects(*pair.key)}

    @pytest.fixture(scope="class")
    def quarantined_survey(self, chaotic):
        return run_survey(chaotic, chunk_size=4, on_error="quarantine")

    def test_seeded_plan_actually_injects(self, dataset, faulty_keys):
        assert 0 < len(faulty_keys) < len(dataset.pairs())

    def test_raise_mode_fails_fast(self, chaotic):
        with pytest.raises(ValueError, match="corrupt or truncated"):
            run_survey(chaotic, chunk_size=4)

    def test_raise_mode_fails_fast_with_workers(self, chaotic):
        with pytest.raises(BatchExecutionError, match="corrupt or truncated"):
            run_survey(chaotic, chunk_size=4, workers=2)

    def test_every_fault_quarantined_exactly_once(self, quarantined_survey,
                                                  faulty_keys):
        failures = quarantined_survey.quarantined
        assert len(failures) == len(faulty_keys)
        assert {(f.metric_name, f.device_id) for f in failures} == faulty_keys
        assert all(f.stage == "trace" and f.error_type == "ValueError"
                   for f in failures)
        assert quarantined_survey.quarantined_count == len(faulty_keys)

    def test_healthy_pairs_byte_identical_to_clean_run(self, dataset, faulty_keys,
                                                       quarantined_survey):
        clean = {(r.metric_name, r.device_id): r
                 for r in run_survey(dataset, chunk_size=4).records}
        salvaged = quarantined_survey.records
        assert len(salvaged) == len(clean) - len(faulty_keys)
        for record in salvaged:
            twin = clean[(record.metric_name, record.device_id)]
            assert (record.category, record.reliable) == \
                (twin.category, twin.reliable)
            for field in ("current_rate", "nyquist_rate", "reduction_ratio",
                          "true_nyquist_rate", "trace_duration"):
                assert np.array_equal(getattr(record, field),
                                      getattr(twin, field), equal_nan=True), field

    def test_headline_reports_quarantine(self, quarantined_survey, faulty_keys):
        assert quarantined_survey.headline()["quarantined_pairs"] == \
            float(len(faulty_keys))

    def test_worker_counts_byte_identical(self, chaotic, quarantined_survey):
        pooled = run_survey(chaotic, chunk_size=4, workers=2,
                            on_error="quarantine")
        assert_blocks_byte_identical(quarantined_survey.iter_blocks(),
                                     pooled.iter_blocks())
        assert_failure_blocks_byte_identical(
            quarantined_survey.failure_sink.blocks(),
            pooled.failure_sink.blocks())

    def test_spilling_sinks_byte_identical(self, chaotic, quarantined_survey,
                                           tmp_path):
        spilled = run_survey(
            chaotic, chunk_size=4, workers=2, on_error="quarantine",
            sink=SpillingRecordSink(tmp_path / "records"),
            failure_sink=SpillingRecordSink(tmp_path / "failures"))
        assert_blocks_byte_identical(quarantined_survey.iter_blocks(),
                                     spilled.iter_blocks())
        assert_failure_blocks_byte_identical(
            quarantined_survey.failure_sink.blocks(),
            spilled.failure_sink.blocks())
        reopened = SurveyResult(
            failure_sink=SpillingRecordSink(tmp_path / "failures"))
        assert reopened.quarantined_count == quarantined_survey.quarantined_count

    def test_transient_io_error_recovers_via_retry(self, dataset, tmp_path):
        plan = FaultPlan(seed=4, fraction=0.2, kinds=("io-error",),
                         io_error_opens=1, state_dir=str(tmp_path / "state"))
        chaotic = FaultInjectingTraceSource(dataset, plan)
        assert any(plan.affects(*pair.key) for pair in dataset.pairs())
        survived = run_survey(chaotic, chunk_size=4, on_error="quarantine",
                              retry_sleep=lambda delay: None)
        assert survived.quarantined_count == 0
        clean = run_survey(dataset, chunk_size=4)
        assert_blocks_byte_identical(clean.iter_blocks(), survived.iter_blocks())

    def test_worker_crash_recovers_without_duplicates(self, dataset, tmp_path):
        metric = dataset.metric_names()[0]
        plan = FaultPlan(seed=6, fraction=0.0, crash_slices=((metric, 0),),
                         state_dir=str(tmp_path / "state"))
        chaotic = FaultInjectingTraceSource(dataset, plan)
        crashed = run_survey(chaotic, chunk_size=2, workers=2,
                             on_error="quarantine",
                             retry_sleep=lambda delay: None)
        assert crashed.quarantined_count == 0
        clean = run_survey(dataset, chunk_size=2, workers=2)
        assert len(clean) == len(crashed)
        assert_blocks_byte_identical(clean.iter_blocks(), crashed.iter_blocks())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_shape_salvage_keeps_each_rows_rate(self, mixed_shape_fleet,
                                                      corrupt_mixed_shape_fleet, workers):
        """Salvaging a slice that mixes polling rates stamps every row with its
        own rate: healthy records equal the clean run's, field for field."""
        corrupt, corrupt_key = corrupt_mixed_shape_fleet
        salvaged = run_survey(corrupt, chunk_size=4, workers=workers,
                              on_error="quarantine")
        assert [(f.metric_name, f.device_id, f.stage) for f in salvaged.quarantined] == \
            [(*corrupt_key, "trace")]
        clean = {(r.metric_name, r.device_id): r
                 for r in run_survey(mixed_shape_fleet, chunk_size=4).records}
        assert len(salvaged) == len(clean) - 1
        for record in salvaged.records:  # repr: exact floats, nan == nan
            assert repr(record) == repr(clean[(record.metric_name, record.device_id)])
