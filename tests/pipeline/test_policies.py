"""Unit tests for the sampling policies."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSamplingController, ControllerMode
from repro.core.errors import compare
from repro.pipeline.policies import (AdaptiveDualRatePolicy, FixedRatePolicy,
                                     NyquistStaticPolicy, PolicyBatchEvaluation, PolicySuite,
                                     SamplingPolicy, StaticPolicySuite)
from repro.signals.generators import multi_tone
from repro.signals.noise import add_white_noise
from repro.signals.timeseries import TimeSeries


@pytest.fixture(scope="module")
def reference():
    """12 h of a slow metric-like signal at a 7.5 s reference interval."""
    rng = np.random.default_rng(7)
    trace = multi_tone([1.0 / 7200.0, 1.0 / 2400.0], duration=43200.0,
                       sampling_rate=1.0 / 7.5, amplitudes=[8.0, 2.0], offset=40.0)
    return add_white_noise(trace, 0.05, rng=rng)


class TestFixedRatePolicy:
    def test_collects_at_requested_rate(self, reference):
        result = FixedRatePolicy(30.0).collect(reference)
        assert result.samples_collected == pytest.approx(43200.0 / 30.0, rel=0.01)
        assert result.mean_sampling_rate == pytest.approx(1.0 / 30.0, rel=0.01)

    def test_reconstruction_quality_good_when_oversampled(self, reference):
        result = FixedRatePolicy(30.0).collect(reference)
        assert compare(reference, result.reconstructed).nrmse < 0.05

    def test_rate_capped_at_reference_rate(self, reference):
        result = FixedRatePolicy(1.0).collect(reference)
        assert result.samples_collected <= len(reference)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            FixedRatePolicy(0.0)

    def test_name_defaults_to_interval(self):
        assert FixedRatePolicy(30.0).name == "fixed@30s"


class TestNyquistStaticPolicy:
    def test_cheaper_than_baseline(self, reference):
        baseline = FixedRatePolicy(30.0).collect(reference)
        static = NyquistStaticPolicy(production_interval=30.0).collect(reference)
        assert static.samples_collected < baseline.samples_collected

    def test_reconstruction_still_reasonable(self, reference):
        static = NyquistStaticPolicy(production_interval=30.0).collect(reference)
        assert compare(reference, static.reconstructed).nrmse < 0.25

    def test_detail_fields(self, reference):
        result = NyquistStaticPolicy(production_interval=30.0).collect(reference)
        assert result.detail["calibration_samples"] > 0
        assert result.detail["target_rate_hz"] > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            NyquistStaticPolicy(production_interval=0.0)
        with pytest.raises(ValueError):
            NyquistStaticPolicy(production_interval=30.0, calibration_fraction=0.0)
        with pytest.raises(ValueError):
            NyquistStaticPolicy(production_interval=30.0, headroom=0.9)


class TestFinishGuard:
    def test_policy_collecting_under_two_samples_raises(self):
        """Satellite fix: a policy that collects 0 or 1 samples used to
        silently reconstruct a constant (0.0 for an empty stream),
        producing a bogus nrmse; it must now fail loudly."""
        short = TimeSeries(np.arange(20, dtype=float), interval=1.0, name="short")
        with pytest.raises(ValueError, match="collected only 1 sample"):
            FixedRatePolicy(100.0).collect(short)

    def test_batch_path_raises_too(self):
        values = np.arange(40, dtype=float).reshape(2, 20)
        with pytest.raises(ValueError, match="collected only 1 sample"):
            FixedRatePolicy(100.0).evaluate_batch(values, 1.0)


#: The adaptive policy under its default controller and under the paper
#: suite's (start 8x below production, ceiling at production).
ADAPTIVE_POLICIES = [
    lambda: AdaptiveDualRatePolicy(window_duration=2 * 3600.0),
    lambda: PolicySuite(production_oversample=4.0, adaptive_window=2 * 3600.0).build(7.5)[2],
]


class TestBatchEvaluation:
    """evaluate_batch (vectorised) must reproduce the scalar collect path."""

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
        # The base-class default runs collect() row by row -- the scalar
        # reference the vectorised overrides must reproduce, bit for bit.
        reference = SamplingPolicy.evaluate_batch(policy, values, interval)
        for column in ("samples_collected", "mean_sampling_rate", "nrmse", "max_abs_error"):
            assert np.array_equal(getattr(vectorised, column), getattr(reference, column),
                                  equal_nan=True), column

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

    @pytest.mark.parametrize("calibration_fraction, tail", [(0.9, 2), (0.95, 1), (0.99, 0)])
    def test_static_short_tail_matches_row_loop(self, calibration_fraction, tail):
        """A calibration prefix that leaves fewer than two samples is kept
        as collected (one sample) or merged alone (none), as collect() does."""
        rng = np.random.default_rng(3)
        values = np.sin(2 * np.pi * np.arange(20) / 10.0) + 0.1 * rng.normal(size=(3, 20))
        policy = NyquistStaticPolicy(production_interval=1.0,
                                     calibration_fraction=calibration_fraction)
        assert values.shape[1] - int(np.ceil(20 * calibration_fraction)) == tail
        self.assert_matches_row_loop(policy, values, 1.0)

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

    def test_measured_fleet_default_is_production_rate(self):
        policies = PolicySuite().build(reference_interval=30.0)
        assert policies[0].interval == pytest.approx(30.0)

    @pytest.mark.parametrize("knobs, message", [
        ({"adaptive_backoff": 0.5}, "adaptive_backoff"),
        ({"adaptive_max_rate_factor": 0.0}, "adaptive_max_rate_factor"),
    ])
    def test_rejects_bad_adaptive_knobs(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            PolicySuite(**knobs)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            PolicySuite(production_oversample=0.5)
        with pytest.raises(ValueError):
            PolicySuite(adaptive_window=0.0)
        with pytest.raises(ValueError):
            PolicySuite().build(reference_interval=0.0)

    def test_static_suite_serves_fixed_policies(self):
        policies = (FixedRatePolicy(30.0, name="a"), FixedRatePolicy(60.0, name="b"))
        suite = StaticPolicySuite(policies)
        assert suite.build(7.5) == list(policies)
        assert suite.build(300.0) == list(policies)

    def test_static_suite_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            StaticPolicySuite(())
        with pytest.raises(ValueError):
            StaticPolicySuite((FixedRatePolicy(30.0, name="x"),
                               FixedRatePolicy(60.0, name="x")))


class TestAdaptivePolicy:
    def test_runs_and_reports_windows(self, reference):
        policy = AdaptiveDualRatePolicy(window_duration=2 * 3600.0)
        result = policy.collect(reference)
        assert result.detail["windows"] == 6
        assert result.samples_collected > 0

    def test_cheaper_than_baseline_on_slow_signal(self, reference):
        baseline = FixedRatePolicy(30.0).collect(reference)
        adaptive = AdaptiveDualRatePolicy(window_duration=2 * 3600.0).collect(reference)
        assert adaptive.samples_collected < baseline.samples_collected

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AdaptiveDualRatePolicy(window_duration=0.0)

    def test_samples_per_hour_property(self, reference):
        result = FixedRatePolicy(60.0).collect(reference)
        assert result.samples_per_hour == pytest.approx(60.0, rel=0.05)


SRC = Path(__file__).resolve().parents[2] / "src"

#: One of each built-in policy, as an explicit policy list builds them.
BUILT_IN = {
    "fixed": "FixedRatePolicy(30.0, name='fixed')",
    "nyquist-static": "NyquistStaticPolicy(production_interval=30.0)",
    "adaptive-dual-rate": "AdaptiveDualRatePolicy(window_duration=2 * 3600.0)",
}


def run_fresh(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter (its own hash seed and addresses)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout.strip()


class TestCacheTokens:
    """A policy's cache_token() is its record-store identity: it must not
    depend on the process that computed it."""

    @pytest.mark.parametrize("policy", list(BUILT_IN))
    def test_token_is_the_same_in_two_fresh_interpreters(self, policy):
        script = ("from repro.pipeline.policies import *\n"
                  f"print({BUILT_IN[policy]}.cache_token())\n")
        first, second = run_fresh(script), run_fresh(script)
        assert " object at 0x" not in first
        assert first == second

    def test_explicit_policy_list_hits_a_store_filled_by_another_process(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.analysis.policy_survey import run_policy_survey\n"
            "from repro.pipeline.policies import *\n"
            "from repro.records import RecordStore\n"
            "from repro.telemetry.dataset import DatasetConfig, FleetDataset\n"
            f"policies = [{', '.join(BUILT_IN.values())}]\n"
            "source = FleetDataset(DatasetConfig(pair_count=12, seed=5, trace_duration=21600.0))\n"
            "result = run_policy_survey(source, policies, store=RecordStore(sys.argv[1]),\n"
            "                           chunk_size=4)\n"
            "print(result.cache_hits, result.cache_misses)\n")
        store = str(tmp_path / "store")
        assert run_fresh(script, store) == "0 12"
        assert run_fresh(script, store) == "12 0"

    def test_suite_token_is_unchanged(self):
        """Stores filled by earlier releases keep hitting for the default suite."""
        assert PolicySuite().cache_token() == (
            "PolicySuite(production_oversample=1.0, calibration_fraction=0.25, headroom=1.2, "
            "adaptive_window=14400.0, adaptive_backoff=8.0, adaptive_max_rate_factor=1.0)")

    def test_fixed_and_adaptive_list_token_is_unchanged(self):
        """Lists without the static policy hit stores filled by earlier releases."""
        suite = StaticPolicySuite((FixedRatePolicy(30.0, name="fixed"),
                                   AdaptiveDualRatePolicy(window_duration=7200.0)))
        assert suite.cache_token() == (
            "StaticPolicySuite(FixedRatePolicy(interval=30.0, name='fixed'), "
            "AdaptiveDualRatePolicy(config=ControllerConfig(initial_rate=0.0033333333333333335, "
            "min_rate=1.1574074074074073e-05, max_rate=inf, probe_multiplier=2.0, "
            "decrease_factor=0.5, headroom=1.2, memory_decay=0.9, dual_rate_ratio=1.6, "
            "aliasing_threshold=0.1, energy_fraction=0.99, aliasing_check_interval=4), "
            "name='adaptive-dual-rate', window_duration=7200.0))")
