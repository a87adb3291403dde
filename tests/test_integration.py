"""End-to-end integration tests spanning several subsystems."""

from __future__ import annotations

import numpy as np

from repro.analysis import CostQualityEvaluator
from repro.analysis.survey import run_survey
from repro.core import ControllerConfig, estimate_nyquist_rate, nyquist_round_trip
from repro.core.quantization import UniformQuantizer
from repro.network import DeploymentSpec, TopologySpec
from repro.pipeline import (AdaptiveDualRatePolicy, EventKind, FixedRatePolicy,
                            NyquistStaticPolicy, inject_event)
from repro.telemetry import METRIC_CATALOG
from repro.telemetry.models import generate_trace
from repro.telemetry.profiles import DeviceProfile, DeviceRole, draw_metric_parameters


class TestSurveyPipeline:
    def test_survey_reproduces_paper_shape(self, small_dataset):
        """The headline §3.2 claims hold qualitatively on the synthetic fleet."""
        survey = run_survey(small_dataset)
        headline = survey.headline()
        # Most pairs over-sampled (paper: 89%), a small minority suspect (11%).
        assert headline["oversampled_fraction"] >= 0.7
        assert headline["undersampled_or_suspect_fraction"] <= 0.3
        # Order-of-magnitude savings are common.
        assert headline["median_reduction_ratio"] > 5

    def test_figure1_fractions_high_for_most_metrics(self, small_dataset):
        survey = run_survey(small_dataset)
        fractions = list(survey.oversampled_fraction_by_metric().values())
        assert np.median(fractions) >= 0.6


class TestFigure6Workflow:
    def test_temperature_round_trip_recovers_within_quantization(self):
        """Figure 6: down-sample a temperature trace to its Nyquist rate and recover it."""
        spec = METRIC_CATALOG["Temperature"]
        device = DeviceProfile("fig6-device", DeviceRole.TOR_SWITCH, seed=61)
        params = draw_metric_parameters(spec, device, 3 * 86400.0, broadband_fraction=0.0,
                                        rng=np.random.default_rng(61))
        trace = generate_trace(spec, params, 3 * 86400.0, rng=np.random.default_rng(61))
        quantizer = UniformQuantizer(spec.quantization_step, spec.minimum, spec.maximum)
        result = nyquist_round_trip(trace, headroom=2.0, quantizer=quantizer)
        assert result.estimate.reliable
        assert result.reduction_factor > 2
        # The reconstruction is within a few quantisation steps everywhere
        # and nearly indistinguishable on average.
        assert result.error.nrmse < 0.1
        assert result.error.max_abs <= 6 * spec.quantization_step

    def test_adaptive_controller_then_reconstruction(self):
        """§4 workflow: adapt the rate, then reconstruct the full signal."""
        spec = METRIC_CATALOG["Temperature"]
        device = DeviceProfile("adaptive-device", DeviceRole.TOR_SWITCH, seed=62)
        params = draw_metric_parameters(spec, device, 2 * 86400.0, broadband_fraction=0.0,
                                        rng=np.random.default_rng(62))
        reference = generate_trace(spec, params, 2 * 86400.0, interval=spec.poll_interval / 2.0,
                                   rng=np.random.default_rng(62))
        policy = AdaptiveDualRatePolicy(window_duration=6 * 3600.0, config=ControllerConfig(
            initial_rate=spec.poll_rate / 4.0, max_rate=reference.sampling_rate))
        evaluation = policy.evaluate_batch(reference.values[None, :], reference.interval)
        assert evaluation.samples_collected[0] < len(reference)
        assert evaluation.nrmse[0] < 0.35


class TestCostQualityPipeline:
    def test_nyquist_static_saves_cost_with_modest_quality_loss(self):
        source = DeploymentSpec(topology=TopologySpec(num_spines=2, num_leaves=2,
                                                      servers_per_leaf=2),
                                trace_duration=21600.0, seed=8).open()
        evaluator = CostQualityEvaluator(
            [FixedRatePolicy(30.0, name="baseline"), NyquistStaticPolicy(30.0)],
            accountant=source.accountant())
        rng = np.random.default_rng(8)
        for pair, reference in source.traces("Link util", limit=4):
            event_time = reference.start_time + float(rng.uniform(0.5, 0.9)) * reference.duration
            modified, event = inject_event(reference, EventKind.STEP, event_time,
                                           magnitude=6.0 * reference.std() + 1.0)
            evaluator.evaluate_point(pair.device.device_id, "Link util", modified, event)
        relative = evaluator.relative_costs("baseline")
        assert relative["nyquist-static"] < 0.9
        row = {row["policy"]: row for row in evaluator.rows()}["nyquist-static"]
        assert row["mean_nrmse"] < 0.5


class TestDatasetToEstimatorConsistency:
    def test_planted_bandwidth_recovered_for_clean_gauges(self):
        """The estimator recovers the generator's planted rate for gauge metrics."""
        spec = METRIC_CATALOG["Link util"]
        recovered = []
        for seed in range(6):
            device = DeviceProfile(f"gauge-{seed}", DeviceRole.TOR_SWITCH, seed=seed)
            params = draw_metric_parameters(spec, device, 86400.0, broadband_fraction=0.0,
                                            rng=np.random.default_rng(seed))
            trace = generate_trace(spec, params, 86400.0, rng=np.random.default_rng(seed))
            estimate = estimate_nyquist_rate(trace)
            if estimate.reliable and params.bandwidth_hz > 2.0 / 86400.0:
                recovered.append(estimate.nyquist_rate / params.true_nyquist_rate)
        assert recovered, "expected at least one clean estimate"
        assert 0.3 <= float(np.median(recovered)) <= 3.0
