"""Unit tests for the per-family telemetry generators."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.nyquist import estimate_nyquist_rate
from repro.telemetry.metrics import METRIC_CATALOG, MetricFamily
from repro.telemetry.models import generate_trace, paths
from repro.telemetry.models.common import (_grid_is_exact, band_limited_component,
                                           broadband_component, diurnal_component,
                                           finalize_trace, time_grid)
from repro.telemetry.models.errorcounts import episode_time_constant
from repro.telemetry.profiles import DeviceProfile, DeviceRole, draw_metric_parameters


def params_for(metric_name, seed=0, broadband=False, bandwidth=None, duration=86400.0):
    spec = METRIC_CATALOG[metric_name]
    device = DeviceProfile(f"dev-{seed}", DeviceRole.TOR_SWITCH, seed=seed)
    params = draw_metric_parameters(spec, device, duration,
                                    broadband_fraction=1.0 if broadband else 0.0,
                                    rng=np.random.default_rng(seed))
    if bandwidth is not None:
        params = type(params)(bandwidth_hz=bandwidth, level=params.level,
                              amplitude=params.amplitude, noise_std=params.noise_std,
                              broadband=params.broadband,
                              burst_rate_per_day=params.burst_rate_per_day, seed=params.seed)
    return spec, params


class TestCommonHelpers:
    def test_time_grid_length(self):
        assert time_grid(100.0, 10.0).shape[0] == 10

    def test_time_grid_rejects_bad_args(self):
        with pytest.raises(ValueError):
            time_grid(0.0, 1.0)

    def test_band_limited_component_stays_in_band(self, rng):
        values = band_limited_component(2048, 1.0, 0.05, 1.0, rng)
        from repro.core.psd import periodogram
        from repro.signals.timeseries import TimeSeries
        spectrum = periodogram(TimeSeries(values, 1.0))
        assert spectrum.energy_fraction_below(0.06) > 0.99

    def test_band_limited_component_peak_amplitude(self, rng):
        values = band_limited_component(1024, 1.0, 0.1, 2.5, rng)
        assert np.max(np.abs(values)) == pytest.approx(2.5, rel=1e-6)

    def test_band_limited_component_with_tiny_band_still_varies(self, rng):
        # Bandwidth below one cycle per trace: at least one bin populated.
        values = band_limited_component(256, 1.0, 1e-9, 1.0, rng)
        assert np.ptp(values) > 0

    def test_broadband_component_zero_amplitude(self, rng):
        assert np.all(broadband_component(64, 0.0, rng) == 0.0)

    def test_diurnal_component_period(self):
        values = diurnal_component(288, 600.0, 5.0)
        assert np.max(values) <= 5.0 * 1.25 + 1e-9
        assert values[0] == pytest.approx(values[len(values) // 2], abs=1e-9)

    def test_episode_time_constant(self):
        assert episode_time_constant(1.0 / (2 * np.pi)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            episode_time_constant(0.0)


class TestGeneratedTraces:
    @pytest.mark.parametrize("metric_name", list(METRIC_CATALOG))
    def test_every_metric_generates_valid_trace(self, metric_name):
        spec, params = params_for(metric_name, seed=11)
        trace = generate_trace(spec, params, duration=21600.0, rng=np.random.default_rng(11))
        assert len(trace) == int(21600.0 / spec.poll_interval)
        assert np.all(np.isfinite(trace.values))
        if spec.minimum is not None:
            assert trace.min() >= spec.minimum - 1e-9
        if spec.maximum is not None:
            assert trace.max() <= spec.maximum + 1e-9

    @pytest.mark.parametrize("metric_name", list(METRIC_CATALOG))
    def test_values_are_quantized(self, metric_name):
        spec, params = params_for(metric_name, seed=13)
        trace = generate_trace(spec, params, duration=21600.0, rng=np.random.default_rng(13))
        steps = trace.values / spec.quantization_step
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-6)

    def test_generation_is_deterministic(self):
        spec, params = params_for("Link util", seed=17)
        a = generate_trace(spec, params, 21600.0, rng=np.random.default_rng(params.seed))
        b = generate_trace(spec, params, 21600.0, rng=np.random.default_rng(params.seed))
        np.testing.assert_allclose(a.values, b.values)

    def test_custom_interval(self):
        spec, params = params_for("Temperature", seed=19)
        fast = generate_trace(spec, params, 21600.0, interval=60.0,
                              rng=np.random.default_rng(19))
        assert fast.interval == 60.0
        assert len(fast) == 360

    def test_slow_device_is_heavily_oversampled(self):
        spec, params = params_for("Link util", seed=23, bandwidth=3e-5)
        trace = generate_trace(spec, params, 86400.0, rng=np.random.default_rng(23))
        estimate = estimate_nyquist_rate(trace)
        assert estimate.reliable
        assert estimate.reduction_ratio > 30

    def test_fast_device_has_higher_estimate_than_slow(self):
        spec, slow_params = params_for("Link util", seed=29, bandwidth=5e-5)
        _, fast_params = params_for("Link util", seed=29, bandwidth=5e-3)
        slow_trace = generate_trace(spec, slow_params, 86400.0,
                                    rng=np.random.default_rng(29))
        fast_trace = generate_trace(spec, fast_params, 86400.0,
                                    rng=np.random.default_rng(29))
        slow_estimate = estimate_nyquist_rate(slow_trace)
        fast_estimate = estimate_nyquist_rate(fast_trace)
        assert fast_estimate.nyquist_rate > slow_estimate.nyquist_rate * 5

    def test_broadband_trace_has_little_headroom(self):
        spec, params = params_for("Temperature", seed=31, broadband=True)
        trace = generate_trace(spec, params, 86400.0, rng=np.random.default_rng(31))
        estimate = estimate_nyquist_rate(trace)
        assert (not estimate.reliable) or estimate.reduction_ratio < 2.0

    def test_error_counters_are_non_negative(self):
        for seed in range(5):
            spec, params = params_for("FCS errors", seed=seed)
            trace = generate_trace(spec, params, 43200.0, rng=np.random.default_rng(seed))
            assert trace.min() >= 0.0

    def test_device_name_in_trace_name(self):
        spec, params = params_for("Temperature", seed=37)
        trace = generate_trace(spec, params, 21600.0, rng=np.random.default_rng(37),
                               device_name="tor-0001")
        assert "tor-0001" in trace.name


# --- Reference generators -------------------------------------------------
#
# The per-episode, per-burst and per-step loops the fast paths replaced,
# kept here as oracles: the library's generators must reproduce them byte
# for byte and leave the RNG in the same state.

def reference_error_count_trace(spec, params, duration, interval, rng):
    times = time_grid(duration, interval)
    n = times.shape[0]
    background = params.level * 0.3 * (
        1.0 + band_limited_component(n, interval, params.bandwidth_hz, 1.0, rng))
    values = np.maximum(background, 0.0)
    tau = max(episode_time_constant(params.bandwidth_hz), 2.0 * interval)
    episode_count = int(rng.poisson(max(params.burst_rate_per_day * duration / 86400.0, 0.0)))
    for _ in range(episode_count):
        centre_index = int(rng.integers(0, n))
        magnitude = params.level * float(rng.uniform(2.0, 10.0))
        span = max(int(round(4.0 * tau / interval)), 1)
        start_index = max(centre_index - span, 0)
        stop_index = min(centre_index + span, n)
        pulse_times = times[start_index:stop_index] - times[centre_index]
        values[start_index:stop_index] += magnitude * np.exp(-0.5 * (pulse_times / tau) ** 2)
    if params.broadband:
        values = values + np.abs(broadband_component(n, params.level, rng))
    return finalize_trace(values, spec, params, interval, rng)


def reference_peak_bandwidth_trace(spec, params, duration, interval, rng):
    times = time_grid(duration, interval)
    n = times.shape[0]
    diurnal_amplitude = params.amplitude * 0.5 if params.bandwidth_hz >= 1.0 / 86400.0 else 0.0
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    baseline = (params.level
                + diurnal_component(n, interval, diurnal_amplitude, phase=phase)
                + band_limited_component(n, interval, params.bandwidth_hz,
                                         params.amplitude * 0.5, rng))
    values = baseline.copy()
    burst_count = int(rng.poisson(max(params.burst_rate_per_day * duration / 86400.0, 0.0)))
    if burst_count:
        sigma = max(1.0 / (2.0 * np.pi * params.bandwidth_hz), 2.0 * interval)
        span = max(int(round(3.0 * sigma / interval)), 1)
        for _ in range(burst_count):
            centre = int(rng.integers(0, n))
            start = max(centre - span, 0)
            stop = min(centre + span, n)
            pulse_times = times[start:stop] - times[centre]
            magnitude = params.amplitude * float(rng.uniform(0.5, 2.0))
            values[start:stop] += magnitude * np.exp(-0.5 * (pulse_times / sigma) ** 2)
    if params.broadband:
        values = values + np.abs(broadband_component(n, params.amplitude, rng))
    return finalize_trace(values, spec, params, interval, rng)


def reference_walk(n, current, mean_count, transition_probability, rng):
    values = np.empty(n)
    for i in range(n):
        if rng.random() < transition_probability:
            direction = (1.0 if rng.random() < 0.5 + 0.5 * (mean_count - current)
                         / (mean_count + 1.0) else -1.0)
            current = max(current + direction * float(rng.integers(1, 3)), 0.0)
        values[i] = current
    return values


def reference_path_count_trace(spec, params, duration, interval, rng):
    n = time_grid(duration, interval).shape[0]
    mean_count = max(params.level, 1.0)
    transition_probability = min(params.bandwidth_hz * interval, 0.5)
    current = float(rng.poisson(mean_count))
    values = reference_walk(n, current, mean_count, transition_probability, rng)
    if params.broadband:
        values = values + np.abs(broadband_component(n, mean_count * 0.5, rng))
    return finalize_trace(values, spec, params, interval, rng)


REFERENCE_GENERATORS = {
    MetricFamily.ERROR_COUNT: reference_error_count_trace,
    MetricFamily.PEAK_BANDWIDTH: reference_peak_bandwidth_trace,
    MetricFamily.PATH_COUNT: reference_path_count_trace,
}

FAST_PATH_METRICS = [name for name, spec in METRIC_CATALOG.items()
                     if spec.family in REFERENCE_GENERATORS]

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64, np.random.PCG64DXSM]


def assert_matches_reference(spec, params, duration, interval, seed):
    """The library trace and one trailing draw equal the reference's, bit for bit."""
    fast_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = generate_trace(spec, params, duration, interval=interval, rng=fast_rng)
    reference = REFERENCE_GENERATORS[spec.family](spec, params, duration, interval,
                                                  reference_rng)
    assert fast.values.tobytes() == reference.values.tobytes()
    assert fast_rng.random() == reference_rng.random()


class TestFastPathsMatchReference:
    @pytest.mark.parametrize("divisor", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("metric_name", FAST_PATH_METRICS)
    def test_one_day_traces(self, metric_name, divisor):
        for seed in range(3):
            spec, params = params_for(metric_name, seed=seed, broadband=seed == 2)
            assert_matches_reference(spec, params, 86400.0, spec.poll_interval / divisor,
                                     seed + 100)

    @pytest.mark.parametrize("divisor", [1, 4, 7])
    @pytest.mark.parametrize("metric_name", FAST_PATH_METRICS)
    def test_one_hour_slow_devices(self, metric_name, divisor):
        # A slow device's pulse spans more than the whole trace; a high
        # burst rate makes sure an hour still draws several of them.
        for seed in range(3):
            spec, params = params_for(metric_name, seed=seed, bandwidth=1e-5)
            params = dataclasses.replace(params, burst_rate_per_day=120.0)
            interval = spec.poll_interval / divisor
            span = max(int(round(4.0 * episode_time_constant(1e-5) / interval)), 1)
            assert span > time_grid(3600.0, interval).shape[0]
            assert_matches_reference(spec, params, 3600.0, interval, seed + 200)

    @pytest.mark.parametrize("metric_name", FAST_PATH_METRICS)
    def test_zero_episode_traces(self, metric_name):
        spec, params = params_for(metric_name, seed=5)
        params = dataclasses.replace(params, burst_rate_per_day=0.0)
        assert_matches_reference(spec, params, 86400.0, spec.poll_interval, 300)

    @pytest.mark.parametrize("interval", [0.1, 1.7, 13.0])
    def test_off_catalogue_intervals(self, interval):
        for metric_name in FAST_PATH_METRICS:
            spec, params = params_for(metric_name, seed=7)
            assert_matches_reference(spec, params, 3600.0, interval, 400)

    @pytest.mark.parametrize("transition_probability",
                             [1e-4, paths.BLOCK_WALK_MAX_PROBABILITY,
                              paths.BLOCK_WALK_MAX_PROBABILITY * 1.01, 0.5])
    def test_path_counts_on_both_sides_of_the_crossover(self, transition_probability):
        spec = METRIC_CATALOG["Lossy paths"]
        _, params = params_for("Lossy paths", seed=9,
                               bandwidth=transition_probability / spec.poll_interval)
        assert_matches_reference(spec, params, 86400.0, spec.poll_interval, 500)

    @pytest.mark.parametrize("transition_probability",
                             [0.0, 1e-3, paths.BLOCK_WALK_MAX_PROBABILITY, 0.5])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    def test_block_walk_matches_step_walk(self, bit_generator, transition_probability):
        for n in (1, paths.WALK_BLOCK, paths.WALK_BLOCK + 1, 1440):
            fast_rng = np.random.Generator(bit_generator(17))
            reference_rng = np.random.Generator(bit_generator(17))
            values = np.empty(n)
            paths._block_walk(values, 3.0, 2.0, transition_probability, fast_rng)
            expected = reference_walk(n, 3.0, 2.0, transition_probability, reference_rng)
            assert values.tobytes() == expected.tobytes()
            assert fast_rng.random() == reference_rng.random()

    def test_grid_exactness(self):
        assert all(_grid_is_exact(86400 * 4, poll / divisor)
                   for poll in (30.0, 60.0, 300.0) for divisor in (1, 2, 3, 4))
        assert not _grid_is_exact(2880, 30.0 / 7)
        assert not _grid_is_exact(2880, 0.1)
        assert _grid_is_exact(1, 0.1)
