"""Unit tests for the fleet survey dataset (the 1613-pair stand-in)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry.dataset import PAPER_PAIR_COUNT, DatasetConfig, FleetDataset
from repro.telemetry.metrics import METRIC_CATALOG


class TestDatasetConfig:
    def test_defaults_match_paper(self):
        config = DatasetConfig()
        assert config.pair_count == PAPER_PAIR_COUNT == 1613
        assert config.trace_duration == 86400.0
        assert len(FleetDataset(config).metric_names()) == 14

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), float("-inf"), 0.0,
                                          -1.0])
    def test_rejects_non_finite_and_non_positive_duration(self, duration):
        with pytest.raises(ValueError, match="trace_duration must be a positive finite"):
            DatasetConfig(trace_duration=duration)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DatasetConfig(pair_count=0)
        with pytest.raises(ValueError):
            DatasetConfig(trace_duration=-1.0)


class TestFleetDataset:
    def test_pair_count_is_exact(self, small_dataset):
        assert len(small_dataset) == 42

    def test_paper_scale_pair_count(self):
        dataset = FleetDataset(DatasetConfig(pair_count=1613, seed=1))
        assert len(dataset.pairs()) == 1613

    def test_pairs_split_evenly_across_metrics(self, small_dataset):
        counts = {}
        for pair in small_dataset.pairs():
            counts[pair.metric.name] = counts.get(pair.metric.name, 0) + 1
        assert set(counts) == set(METRIC_CATALOG)
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_pairs_are_unique(self, small_dataset):
        keys = [pair.key for pair in small_dataset.pairs()]
        assert len(keys) == len(set(keys))

    def test_pairs_cached(self, small_dataset):
        assert small_dataset.pairs() is small_dataset.pairs()

    def test_deterministic_across_instances(self):
        a = FleetDataset(DatasetConfig(pair_count=28, seed=9))
        b = FleetDataset(DatasetConfig(pair_count=28, seed=9))
        assert [p.key for p in a.pairs()] == [p.key for p in b.pairs()]
        pair_a, trace_a = next(a.traces())
        pair_b, trace_b = next(b.traces())
        assert pair_a.key == pair_b.key
        np.testing.assert_allclose(trace_a.values, trace_b.values)

    def test_different_seeds_differ(self):
        a = FleetDataset(DatasetConfig(pair_count=28, seed=1))
        b = FleetDataset(DatasetConfig(pair_count=28, seed=2))
        values_a = next(a.traces())[1].values
        values_b = next(b.traces())[1].values
        assert not np.allclose(values_a, values_b)

    def test_load_uses_production_interval_by_default(self, small_dataset):
        pair = small_dataset.pairs()[0]
        trace = small_dataset.load(pair)
        assert trace.interval == pair.metric.poll_interval

    def test_traces_filter_by_metric(self, small_dataset):
        traces = list(small_dataset.traces("Temperature"))
        assert traces
        assert all(pair.metric.name == "Temperature" for pair, _ in traces)

    def test_traces_limit(self, small_dataset):
        assert len(list(small_dataset.traces(limit=5))) == 5

    def test_traces_offset_slices_pair_list(self, small_dataset):
        keys = [pair.key for pair, _ in small_dataset.traces(limit=4)]
        shifted = [pair.key for pair, _ in small_dataset.traces(offset=2, limit=2)]
        assert shifted == keys[2:4]

    def test_traces_offset_past_end_fails_loudly(self, small_dataset):
        """Regression: an offset past the pair list used to yield nothing,
        so a stale worker batch spec silently dropped records."""
        with pytest.raises(ValueError, match="past the end"):
            list(small_dataset.traces(offset=len(small_dataset)))
        with pytest.raises(ValueError, match="Temperature"):
            count = len(small_dataset.pairs_for_metric("Temperature"))
            list(small_dataset.traces("Temperature", offset=count + 1))

    def test_trace_batches_offset_past_end_fails_loudly(self, small_dataset):
        with pytest.raises(ValueError, match="past the end"):
            list(small_dataset.trace_batches(offset=10 ** 9))

    def test_traces_rejects_negative_offset_and_limit(self, small_dataset):
        with pytest.raises(ValueError):
            list(small_dataset.traces(offset=-1))
        with pytest.raises(ValueError):
            list(small_dataset.traces(limit=-1))

    def test_broadband_fraction_roughly_respected(self):
        dataset = FleetDataset(DatasetConfig(pair_count=280, seed=3))
        fraction = np.mean([pair.parameters.broadband for pair in dataset.pairs()])
        assert 0.03 <= fraction <= 0.25

    def test_metric_names(self, small_dataset):
        assert small_dataset.metric_names() == list(METRIC_CATALOG)


class TestTraceBatches:
    def test_batches_cover_every_pair_in_order(self, small_dataset):
        flat_pairs = [pair for batch in small_dataset.trace_batches() for pair in batch.pairs]
        assert [p.key for p in flat_pairs] == [p.key for p, _ in small_dataset.traces()]

    def test_rows_match_individual_traces(self, small_dataset):
        expected = {pair.key: trace for pair, trace in small_dataset.traces("Temperature")}
        for batch in small_dataset.trace_batches("Temperature"):
            for row, pair in enumerate(batch.pairs):
                np.testing.assert_allclose(batch.values[row], expected[pair.key].values)
                assert batch.interval == expected[pair.key].interval

    def test_rows_share_shape_and_interval(self, small_dataset):
        for batch in small_dataset.trace_batches():
            assert batch.values.ndim == 2
            assert batch.values.shape[0] == len(batch)
            assert batch.sampling_rate == pytest.approx(1.0 / batch.interval)

    def test_chunk_size_bounds_batch_rows(self, small_dataset):
        batches = list(small_dataset.trace_batches(chunk_size=2))
        assert all(len(batch) <= 2 for batch in batches)
        flat = [pair.key for batch in batches for pair in batch.pairs]
        assert flat == [pair.key for pair, _ in small_dataset.traces()]

    def test_limit_applies_per_call(self, small_dataset):
        batches = list(small_dataset.trace_batches("Temperature", limit=2))
        assert sum(len(batch) for batch in batches) == 2

    def test_rejects_bad_chunk_size(self, small_dataset):
        with pytest.raises(ValueError):
            next(small_dataset.trace_batches(chunk_size=0))
