"""Unit tests for the sampling policies."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.policy_survey import CostQualityEvaluator
from repro.core.adaptive import AdaptiveSamplingController, ControllerMode
from repro.core.adaptive import DEFAULT_HEADROOM
from repro.pipeline.policies import (AdaptiveDualRatePolicy, Collection, FixedRatePolicy,
                                     NyquistStaticPolicy, PolicyBatchEvaluation, PolicySuite,
                                     SamplingPolicy)
from repro.signals.generators import multi_tone
from repro.signals.noise import add_white_noise
from repro.signals.timeseries import TimeSeries
from policy_oracle import collect, evaluate_rows


@pytest.fixture(scope="module")
def reference():
    """12 h of a slow metric-like signal at a 7.5 s reference interval."""
    rng = np.random.default_rng(7)
    trace = multi_tone([1.0 / 7200.0, 1.0 / 2400.0], duration=43200.0,
                       sampling_rate=1.0 / 7.5, amplitudes=[8.0, 2.0], offset=40.0)
    return add_white_noise(trace, 0.05, rng=rng)


def evaluate_one(policy: SamplingPolicy, reference: TimeSeries) -> PolicyBatchEvaluation:
    """``evaluate_batch`` on the one-row matrix of ``reference``."""
    return policy.evaluate_batch(reference.values[None, :], reference.interval)


class TestFixedRatePolicy:
    def test_collects_at_requested_rate(self, reference):
        result = evaluate_one(FixedRatePolicy(30.0), reference)
        assert result.samples_collected[0] == pytest.approx(43200.0 / 30.0, rel=0.01)
        assert result.mean_sampling_rate[0] == pytest.approx(1.0 / 30.0, rel=0.01)

    def test_reconstruction_quality_good_when_oversampled(self, reference):
        assert evaluate_one(FixedRatePolicy(30.0), reference).nrmse[0] < 0.05

    def test_rate_capped_at_reference_rate(self, reference):
        result = evaluate_one(FixedRatePolicy(1.0), reference)
        assert result.samples_collected[0] <= len(reference)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            FixedRatePolicy(0.0)

    def test_name_defaults_to_interval(self):
        assert FixedRatePolicy(30.0).name == "fixed@30s"


class TestNyquistStaticPolicy:
    def test_cheaper_than_baseline(self, reference):
        baseline = evaluate_one(FixedRatePolicy(30.0), reference)
        static = evaluate_one(NyquistStaticPolicy(production_interval=30.0), reference)
        assert static.samples_collected[0] < baseline.samples_collected[0]

    def test_reconstruction_still_reasonable(self, reference):
        static = evaluate_one(NyquistStaticPolicy(production_interval=30.0), reference)
        assert static.nrmse[0] < 0.25

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            NyquistStaticPolicy(production_interval=0.0)
        with pytest.raises(ValueError):
            NyquistStaticPolicy(production_interval=30.0, calibration_fraction=0.0)


class TestFinishGuard:
    def test_policy_collecting_under_two_samples_raises(self):
        """Satellite fix: a policy that collects 0 or 1 samples used to
        silently reconstruct a constant (0.0 for an empty stream),
        producing a bogus nrmse; it must now fail loudly."""
        short = TimeSeries(np.arange(20, dtype=float), interval=1.0, name="short")
        evaluator = CostQualityEvaluator([FixedRatePolicy(100.0)])
        with pytest.raises(ValueError, match="collected only 1 sample"):
            evaluator.evaluate_point("short", "metric", short)

    def test_batch_path_raises_too(self):
        values = np.arange(40, dtype=float).reshape(2, 20)
        with pytest.raises(ValueError, match="collected only 1 sample"):
            FixedRatePolicy(100.0).evaluate_batch(values, 1.0)


class TestCollectionStreams:
    def test_coarser_runs_repeat_on_the_finest_stride(self):
        """An empty run is skipped, and its stride does not set the grid."""
        values = np.arange(12.0)[None, :]
        collection = Collection(np.array([5]), (((0, 4, 4), (4, 4, 1), (4, 10, 2)),))
        (members, matrix, stream_interval), = collection.streams(values, 5.0)
        assert members == slice(None) and stream_interval == 10.0
        np.testing.assert_array_equal(matrix, [[0.0, 0.0, 4.0, 6.0, 8.0]])

    def test_a_row_without_runs_streams_nothing_at_the_reference_interval(self):
        collection = Collection(np.array([0]), ((),))
        (_, matrix, stream_interval), = collection.streams(np.zeros((1, 8)), 5.0)
        assert matrix.shape == (1, 0) and stream_interval == 5.0

    def test_one_run_without_repeat_is_a_view_of_the_reference(self):
        values = np.arange(40.0).reshape(4, 10)
        (members, matrix, stream_interval), = FixedRatePolicy(3.0).collect_batch(
            values, 1.0).streams(values, 1.0)
        assert members == slice(None) and stream_interval == 3.0
        assert np.shares_memory(matrix, values)
        np.testing.assert_array_equal(matrix, values[:, ::3])

    def test_rows_of_one_shape_share_a_group_in_row_order(self):
        """Two layouts of equal length and grid are scored as one group."""
        values = np.arange(24.0).reshape(2, 12)
        collection = Collection(np.array([4, 4]), (((0, 6, 2), (6, 12, 4)),
                                                   ((0, 6, 4), (6, 12, 2))))
        (members, matrix, stream_interval), = collection.streams(values, 1.0)
        assert members == slice(None) and stream_interval == 2.0
        np.testing.assert_array_equal(matrix, [[0, 2, 4, 6, 6, 10, 10],
                                               [12, 12, 16, 16, 18, 20, 22]])


#: The adaptive policy under its default controller and under the paper
#: suite's (start 8x below production, ceiling at production).
ADAPTIVE_POLICIES = [
    lambda: AdaptiveDualRatePolicy(window_duration=2 * 3600.0),
    lambda: PolicySuite(production_oversample=4.0, adaptive_window=2 * 3600.0).build(7.5)[2],
]


#: One of each built-in policy collection, both adaptive controllers included.
ALL_POLICIES = [
    lambda: FixedRatePolicy(30.0),
    lambda: NyquistStaticPolicy(production_interval=30.0),
    *ADAPTIVE_POLICIES,
]


class TestBatchEvaluation:
    """evaluate_batch (vectorised) must reproduce the scalar reference collections."""

    @pytest.fixture(scope="class")
    def batch(self):
        """12.5 h at 7.5 s: the last half hour is a partial 2 h window, dropped."""
        rng = np.random.default_rng(21)
        duration = 45000.0
        rows = []
        for k in range(5):
            # Different slow tones: rows settle at different rates, so
            # later windows split the batch into several rate groups.
            trace = multi_tone([1.0 / (3600.0 * (k + 1)), 1.0 / 1800.0],
                               duration=duration, sampling_rate=1.0 / 7.5,
                               amplitudes=[8.0, 2.0], offset=40.0)
            rows.append(add_white_noise(trace, 0.05, rng=rng).values)
        n = rows[0].size
        rows.append(np.full(n, 40.0))                    # constant
        rows.append(40.0 + 8.0 * rng.normal(size=n))     # broadband: pinned at the ceiling
        return np.vstack(rows), 7.5

    @pytest.fixture(scope="class")
    def coarse_batch(self):
        """A 300 s metric: 2 h windows hold only 24 reference samples, so a
        settled controller that halves its rate sees fewer than the
        estimator's 16-sample minimum and takes the "trace too short" hold."""
        rng = np.random.default_rng(22)
        rows = [add_white_noise(multi_tone([1.0 / (3600.0 * (k + 8))], duration=86400.0,
                                           sampling_rate=1.0 / 300.0, amplitudes=[3.0],
                                           offset=20.0), 0.01, rng=rng).values
                for k in range(4)]
        return np.vstack(rows), 300.0

    @staticmethod
    def assert_matches_row_loop(policy: SamplingPolicy, values: np.ndarray,
                                interval: float) -> None:
        vectorised = policy.evaluate_batch(values, interval)
        # The oracle collects, reconstructs and compares one row at a
        # time with the scalar helpers; the batch must match it bit for bit.
        reference = evaluate_rows(policy, values, interval)
        for column in ("samples_collected", "mean_sampling_rate", "nrmse", "max_abs_error"):
            assert np.array_equal(getattr(vectorised, column), getattr(reference, column),
                                  equal_nan=True), column

    @staticmethod
    def assert_rows_evaluate_alone(policy: SamplingPolicy, values: np.ndarray,
                                   interval: float) -> None:
        """N-row evaluate_batch equals N one-row calls: no group leaks across rows."""
        collection = policy.collect_batch(values, interval)
        everyone = np.arange(values.shape[0])
        members = np.sort(np.concatenate([everyone[rows] for rows, _, _
                                          in collection.streams(values, interval)]))
        assert np.array_equal(members, everyone)
        together = policy.evaluate_batch(values, interval)
        for index in range(values.shape[0]):
            alone = policy.evaluate_batch(values[index:index + 1], interval)
            for column in ("samples_collected", "mean_sampling_rate", "nrmse",
                           "max_abs_error"):
                assert np.array_equal(getattr(together, column)[index:index + 1],
                                      getattr(alone, column), equal_nan=True), (index, column)

    @staticmethod
    def assert_streams_match_oracle(policy: SamplingPolicy, values: np.ndarray,
                                    interval: float) -> None:
        """Every row's laid-out stream is the oracle's merged stream, byte for byte."""
        collection = policy.collect_batch(values, interval)
        everyone = np.arange(values.shape[0])
        seen = []
        for members, matrix, stream_interval in collection.streams(values, interval):
            assert matrix.shape[0] == everyone[members].size
            for position, row in enumerate(everyone[members]):
                samples, expected = collect(policy, TimeSeries(values[row], interval))
                assert collection.samples_collected[row] == samples, row
                assert matrix[position].tobytes() == expected.values.tobytes(), row
                assert stream_interval == expected.interval, row
                seen.append(row)
        assert sorted(seen) == everyone.tolist()

    @pytest.mark.parametrize("fixture", ["batch", "coarse_batch"])
    @pytest.mark.parametrize("make_policy", ALL_POLICIES,
                             ids=["fixed", "nyquist-static", "adaptive", "adaptive-suite"])
    def test_streams_match_the_oracle_merge(self, request, fixture, make_policy):
        values, interval = request.getfixturevalue(fixture)
        self.assert_streams_match_oracle(make_policy(), values, interval)

    @pytest.mark.parametrize("interval", [7.3, 2.7])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_tiny_trace_streams_match_the_oracle_merge(self, n, interval):
        """Two-sample windows leave a one-sample tail at n = 3 and 5, and the
        static remainder is a single sample at n = 2."""
        rng = np.random.default_rng(n)
        values = 40.0 + rng.normal(size=(3, n))
        suite = PolicySuite(production_oversample=3.0, adaptive_window=2 * interval)
        for policy in suite.build(interval):
            self.assert_streams_match_oracle(policy, values, interval)

    @pytest.mark.parametrize("interval", [7.3, 2.7])
    def test_odd_interval_streams_match_the_oracle_merge(self, interval):
        """Strides that do not nest, and a 5000 s window that does not divide the trace."""
        rng = np.random.default_rng(31)
        duration = 8 * 3600.0
        rows = [add_white_noise(multi_tone([1.0 / (1800.0 * (k + 1)), 1.0 / 600.0],
                                           duration=duration, sampling_rate=1.0 / interval,
                                           amplitudes=[8.0, 1.0 + k], offset=40.0),
                                0.05, rng=rng).values for k in range(4)]
        values = np.vstack([*rows, 40.0 + 8.0 * rng.normal(size=rows[0].size)])
        assert (values.shape[1] * interval) % 5000.0 > 0
        suite = PolicySuite(production_oversample=4.0, adaptive_window=5000.0)
        for policy in suite.build(interval):
            self.assert_streams_match_oracle(policy, values, interval)

    @pytest.mark.parametrize("make_policy", [
        lambda: FixedRatePolicy(30.0),
        lambda: NyquistStaticPolicy(production_interval=30.0),
        ADAPTIVE_POLICIES[0],
    ])
    def test_matches_scalar_reference(self, batch, make_policy):
        values, interval = batch
        self.assert_matches_row_loop(make_policy(), values, interval)

    @pytest.mark.parametrize("fixture,make_policy", [
        ("batch", ADAPTIVE_POLICIES[1]),
        ("coarse_batch", ADAPTIVE_POLICIES[0]),
        ("coarse_batch", ADAPTIVE_POLICIES[1]),
    ])
    def test_adaptive_matches_row_loop_exactly(self, request, fixture, make_policy):
        values, interval = request.getfixturevalue(fixture)
        self.assert_matches_row_loop(make_policy(), values, interval)

    def test_fixtures_reach_every_controller_branch(self, batch, coarse_batch):
        """Guards the exact-equality test above: the fixtures must drive the
        stepper through each branch it has to get right."""
        suite_policy = ADAPTIVE_POLICIES[1]()
        values, interval = batch
        runs = AdaptiveSamplingController(suite_policy.config).run_batch(
            values, interval, suite_policy.window_duration)
        # The partial last window is dropped: 6 full 2 h windows of 12.5 h.
        assert all(len(run.decisions) == 6 for run in runs)
        # Rows split into several rate groups within one window.
        assert any(len({run.decisions[w].sampling_rate for run in runs}) > 2
                   for w in range(6))
        # The broadband row ramps to its ceiling and settles there through
        # the pinned-probe rule instead of probing forever.
        pinned = runs[6].decisions[-1]
        assert pinned.mode is ControllerMode.STEADY
        assert pinned.sampling_rate == suite_policy.config.max_rate == pinned.next_rate

        values, interval = coarse_batch
        policy = ADAPTIVE_POLICIES[0]()
        runs = AdaptiveSamplingController(policy.config).run_batch(
            values, interval, policy.window_duration)
        held = [decision for run in runs for decision in run.decisions
                if decision.mode is ControllerMode.STEADY
                and decision.samples_collected < 16
                and np.isnan(decision.nyquist_estimate)
                and decision.next_rate == decision.sampling_rate]
        assert held, "no window took the 'trace too short' hold"

    @pytest.mark.parametrize("make_policy", [
        lambda: FixedRatePolicy(30.0),
        lambda: NyquistStaticPolicy(production_interval=30.0),
        lambda: AdaptiveDualRatePolicy(),
    ], ids=["fixed", "nyquist-static", "adaptive-dual-rate"])
    def test_rejects_non_matrix_input(self, make_policy):
        with pytest.raises(ValueError, match="matrix"):
            make_policy().evaluate_batch(np.arange(10.0), 1.0)

    @pytest.mark.parametrize("fixture", ["batch", "coarse_batch"])
    @pytest.mark.parametrize("make_policy", ALL_POLICIES,
                             ids=["fixed", "nyquist-static", "adaptive", "adaptive-suite"])
    def test_rows_evaluate_as_if_alone(self, request, fixture, make_policy):
        values, interval = request.getfixturevalue(fixture)
        self.assert_rows_evaluate_alone(make_policy(), values, interval)

    @pytest.mark.parametrize("calibration_fraction, tail", [(0.9, 2), (0.95, 1), (0.99, 0)])
    def test_static_short_tail_matches_row_loop(self, calibration_fraction, tail):
        """A calibration prefix that leaves fewer than two samples is kept
        as collected (one sample) or merged alone (none), as the oracle does."""
        rng = np.random.default_rng(3)
        values = np.sin(2 * np.pi * np.arange(20) / 10.0) + 0.1 * rng.normal(size=(3, 20))
        policy = NyquistStaticPolicy(production_interval=1.0,
                                     calibration_fraction=calibration_fraction)
        assert values.shape[1] - int(np.ceil(20 * calibration_fraction)) == tail
        self.assert_matches_row_loop(policy, values, 1.0)
        self.assert_rows_evaluate_alone(policy, values, 1.0)

    def test_batch_columns_must_share_the_row_count(self):
        with pytest.raises(ValueError, match="'nrmse' must be 1-D with 2 rows"):
            PolicyBatchEvaluation("p", np.ones(2), np.ones(2), np.ones(3), np.ones(2))


class TestPolicySuite:
    def test_builds_the_three_paper_policies(self):
        suite = PolicySuite(production_oversample=4.0)
        policies = suite.build(reference_interval=7.5)
        assert [policy.name for policy in policies] == \
            ["fixed", "nyquist-static", "adaptive-dual-rate"]
        fixed, static, adaptive = policies
        assert fixed.interval == pytest.approx(30.0)
        assert static.production_interval == pytest.approx(30.0)
        # The controller starts backed off from the production rate.
        assert adaptive.config.initial_rate == pytest.approx((1.0 / 30.0) / 8.0)
        # ... is capped at it, and settles with the static policy's headroom.
        assert adaptive.config.max_rate == pytest.approx(1.0 / 30.0)
        assert adaptive.config.headroom == DEFAULT_HEADROOM == 1.2

    def test_measured_fleet_default_is_production_rate(self):
        policies = PolicySuite().build(reference_interval=30.0)
        assert policies[0].interval == pytest.approx(30.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            PolicySuite(production_oversample=0.5)
        with pytest.raises(ValueError):
            PolicySuite(adaptive_window=0.0)
        with pytest.raises(ValueError):
            PolicySuite().build(reference_interval=0.0)

    @pytest.mark.parametrize("field, value", [
        ("production_oversample", float("nan")), ("production_oversample", float("inf")),
        ("production_oversample", float("-inf")), ("production_oversample", 0.5),
        ("adaptive_window", float("nan")), ("adaptive_window", float("inf")),
        ("adaptive_window", float("-inf")), ("adaptive_window", 0.0),
        ("adaptive_window", -3600.0),
    ])
    def test_rejects_non_finite_and_out_of_range_fields(self, field, value):
        """Regression: NaN passed ``x < 1`` and ``x <= 0``, so a NaN window ran
        the whole survey and then failed on an empty adaptive stream."""
        with pytest.raises(ValueError, match=field):
            PolicySuite(**{field: value})

    def test_repr_names_only_the_fields(self):
        assert repr(PolicySuite()) == (
            "PolicySuite(production_oversample=1.0, calibration_fraction=0.25, "
            "adaptive_window=14400.0)")


NON_POSITIVE = [float("nan"), float("inf"), float("-inf"), 0.0, -30.0]


class TestNonFiniteRates:
    """Every rate or window a policy is built with must be positive and finite."""

    @pytest.mark.parametrize("value", NON_POSITIVE)
    def test_fixed_rate_interval(self, value):
        with pytest.raises(ValueError, match="interval must be a positive finite"):
            FixedRatePolicy(value)

    @pytest.mark.parametrize("value", NON_POSITIVE)
    def test_static_production_interval(self, value):
        with pytest.raises(ValueError, match="production_interval must be a positive finite"):
            NyquistStaticPolicy(production_interval=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, 1.0])
    def test_static_calibration_fraction(self, value):
        """The suite passes its fraction through; building its policies checks it."""
        with pytest.raises(ValueError, match="calibration_fraction must be in"):
            NyquistStaticPolicy(production_interval=30.0, calibration_fraction=value)
        with pytest.raises(ValueError, match="calibration_fraction must be in"):
            PolicySuite(calibration_fraction=value).build(reference_interval=30.0)

    @pytest.mark.parametrize("value", NON_POSITIVE)
    def test_adaptive_window_duration(self, value):
        with pytest.raises(ValueError, match="window_duration must be a positive finite"):
            AdaptiveDualRatePolicy(window_duration=value)


class TestAdaptivePolicy:
    def test_runs_and_reports_windows(self, reference):
        policy = AdaptiveDualRatePolicy(window_duration=2 * 3600.0)
        run = policy.run_controller(reference)
        assert len(run.decisions) == 6
        assert run.total_samples_collected > 0

    def test_cheaper_than_baseline_on_slow_signal(self, reference):
        baseline = evaluate_one(FixedRatePolicy(30.0), reference)
        adaptive = evaluate_one(AdaptiveDualRatePolicy(window_duration=2 * 3600.0), reference)
        assert adaptive.samples_collected[0] < baseline.samples_collected[0]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AdaptiveDualRatePolicy(window_duration=0.0)


SRC = Path(__file__).resolve().parents[2] / "src"


def run_fresh(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter (its own hash seed and addresses)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout.strip()


class TestCacheTokens:
    """A suite's cache_token() is its record-store identity: it must not
    depend on the process that computed it."""

    def test_suite_hits_a_store_filled_by_another_process(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.analysis.policy_survey import run_policy_survey\n"
            "from repro.pipeline.policies import PolicySuite\n"
            "from repro.records import RecordStore\n"
            "from repro.telemetry.dataset import DatasetConfig, FleetDataset\n"
            "source = FleetDataset(DatasetConfig(pair_count=12, seed=5, trace_duration=21600.0))\n"
            "result = run_policy_survey(source, PolicySuite(adaptive_window=7200.0),\n"
            "                           store=RecordStore(sys.argv[1]), chunk_size=4)\n"
            "print(result.cache_hits, result.cache_misses)\n")
        store = str(tmp_path / "store")
        assert run_fresh(script, store) == "0 12"
        assert run_fresh(script, store) == "12 0"

    def test_suite_token_is_unchanged(self):
        """Stores filled by earlier releases keep hitting for the default suite."""
        assert PolicySuite().cache_token() == (
            "PolicySuite(production_oversample=1.0, calibration_fraction=0.25, headroom=1.2, "
            "adaptive_window=14400.0, adaptive_backoff=8.0, adaptive_max_rate_factor=1.0)")

    def test_token_names_every_field_as_given(self):
        """A field's repr goes into the token as the dataclass repr put it."""
        assert PolicySuite(production_oversample=4, calibration_fraction=0.5,
                           adaptive_window=7200.0).cache_token() == (
            "PolicySuite(production_oversample=4, calibration_fraction=0.5, headroom=1.2, "
            "adaptive_window=7200.0, adaptive_backoff=8.0, adaptive_max_rate_factor=1.0)")
