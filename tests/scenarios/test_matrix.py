"""Matrix harness mechanics: worker parity, worker specs, loud empty cells."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.policy_survey import run_policy_survey
from repro.network.monitoring import DeploymentSpec
from repro.network.topology import TopologySpec
from repro.pipeline.policies import AdaptiveDualRatePolicy
from repro.scenarios import (DiurnalCycle, MatrixResult, RegimeShift, Scenario,
                             evaluate_cell, paper_suite)

INCIDENT = Scenario("incident", (DiurnalCycle(period=3600.0, amplitude=0.4),
                                 RegimeShift(shift_fraction=0.5,
                                             frequency_fraction=0.8, amplitude=2.0)))

#: Columns asserted byte-identical between worker counts.
_COLUMNS = ("device_ids", "samples", "mean_rate_hz", "nrmse", "max_abs_error",
            "hops", "collection_cpu_us", "transmission", "storage_bytes", "analysis")


@pytest.fixture(scope="module")
def spec():
    return DeploymentSpec(
        topology=TopologySpec(num_spines=1, num_leaves=2, servers_per_leaf=1),
        trace_duration=4 * 3600.0, seed=29, oversample_factor=2.0)


class TestWorkerParity:
    def test_scenario_survey_is_byte_identical_across_worker_counts(self, spec):
        """A scenario-wrapped source must keep the survey's worker-count
        byte-equivalence: transforms are pure and re-applied per worker."""
        suite = paper_suite()
        single_source = INCIDENT.wrap(spec.open())
        pooled_source = INCIDENT.wrap(spec.open())
        single = run_policy_survey(single_source, suite,
                                   accountant=single_source.inner.accountant(),
                                   chunk_size=16)
        pooled = run_policy_survey(pooled_source, suite,
                                   accountant=pooled_source.inner.accountant(),
                                   chunk_size=16, workers=2)
        blocks_a, blocks_b = list(single.iter_blocks()), list(pooled.iter_blocks())
        assert len(blocks_a) == len(blocks_b)
        for a, b in zip(blocks_a, blocks_b):
            assert (a.metric_name, a.policy_name) == (b.metric_name, b.policy_name)
            for column in _COLUMNS:
                assert np.array_equal(getattr(a, column), getattr(b, column),
                                      equal_nan=getattr(a, column).dtype == np.float64)

    def test_worker_spec_round_trip_serves_identical_traces(self, spec):
        wrapped = INCIDENT.wrap(spec.open())
        reopened = pickle.loads(pickle.dumps(wrapped.worker_spec())).open()
        for pair, clone in list(zip(wrapped.pairs(), reopened.pairs()))[:4]:
            assert pair.key == clone.key
            assert np.array_equal(wrapped.load(pair).values,
                                  reopened.load(clone).values)

    def test_content_token_folds_the_transform_stack(self, spec):
        """A record store must never serve one scenario's cached records to
        another: the token changes with the stack."""
        source = spec.open()
        wrapped = INCIDENT.wrap(source)
        calm = Scenario("calm").wrap(source)
        pair = source.pairs()[0]
        tokens = {source.pair_content_token(pair),
                  wrapped.pair_content_token(pair),
                  calm.pair_content_token(pair)}
        assert len(tokens) == 3


class TestLoudFailures:
    def test_zero_pair_cell_raises_with_the_cell_name(self, spec):
        class EmptySource:
            def pairs(self):
                return []

        source = spec.open()
        with pytest.raises(ValueError, match=r"ghost x leaf-spine.*zero"):
            evaluate_cell(Scenario("ghost"), "leaf-spine", EmptySource(),
                          source.accountant(), paper_suite())

    def test_missing_cell_lookup_raises_key_error(self):
        with pytest.raises(KeyError, match="no cell"):
            MatrixResult(cells=()).cell("stationary", "leaf-spine")


class TestCellPayload:
    def test_payload_round_trips_through_json(self, spec):
        import json

        source = spec.open()
        cell = evaluate_cell(INCIDENT, "leaf-spine", source, source.accountant(),
                             paper_suite())
        payload = json.loads(json.dumps(cell.to_payload()))
        assert payload["scenario"] == "incident"
        assert payload["fabric"] == "leaf-spine"
        assert set(payload["relative_costs"]) \
            == {"fixed", "nyquist-static", "adaptive-dual-rate"}
        assert payload["shift_time_s"] == pytest.approx(0.5 * 4 * 3600.0)
        assert isinstance(payload["holds_paper_ordering"], bool)
        assert payload["verdict"]
        # The trajectory is a list of [time, rate] points.
        assert all(len(point) == 2 for point in payload["adaptive_rate_trajectory"])


class TestAdaptiveReaction:
    def test_each_metric_is_scored_on_the_controller_the_survey_runs(self, spec,
                                                                      monkeypatch):
        """The re-probe numbers must come from the adaptive policy the suite
        builds for the metric's own interval, not the first metric's."""
        seen: list[tuple[float, object]] = []
        run_controller = AdaptiveDualRatePolicy.run_controller

        def recording(policy, reference):
            seen.append((reference.interval, policy.config))
            return run_controller(policy, reference)

        monkeypatch.setattr(AdaptiveDualRatePolicy, "run_controller", recording)
        suite = paper_suite()
        source = spec.open()
        evaluate_cell(INCIDENT, "leaf-spine", source, source.accountant(), suite)
        assert len({interval for interval, _ in seen}) > 1
        for interval, config in seen:
            built = next(policy for policy in suite.build(interval)
                         if isinstance(policy, AdaptiveDualRatePolicy))
            assert config == built.config
