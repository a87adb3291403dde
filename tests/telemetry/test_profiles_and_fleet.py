"""Unit tests for device profiles, parameter draws and fleet construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry.fleet import DEFAULT_ROLE_MIX, build_fleet
from repro.telemetry.metrics import METRIC_CATALOG
from repro.telemetry.profiles import (DeviceProfile, DeviceRole, MetricParameters,
                                      draw_metric_parameters)


class TestDeviceProfile:
    def test_metric_seed_is_deterministic(self):
        device = DeviceProfile("tor-1", DeviceRole.TOR_SWITCH, seed=7)
        assert device.metric_seed("Temperature") == device.metric_seed("Temperature")

    def test_metric_seed_differs_across_metrics(self):
        device = DeviceProfile("tor-1", DeviceRole.TOR_SWITCH, seed=7)
        assert device.metric_seed("Temperature") != device.metric_seed("Link util")


class TestMetricParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetricParameters(bandwidth_hz=0.0, level=1.0, amplitude=1.0, noise_std=0.1,
                             broadband=False, burst_rate_per_day=1.0, seed=0)
        with pytest.raises(ValueError):
            MetricParameters(bandwidth_hz=1.0, level=1.0, amplitude=-1.0, noise_std=0.1,
                             broadband=False, burst_rate_per_day=1.0, seed=0)

    def test_true_nyquist_rate(self):
        params = MetricParameters(bandwidth_hz=0.001, level=1.0, amplitude=1.0,
                                  noise_std=0.0, broadband=False, burst_rate_per_day=1.0,
                                  seed=0)
        assert params.true_nyquist_rate == pytest.approx(0.002)


class TestParameterDraws:
    def test_draw_is_deterministic_in_seed(self):
        spec = METRIC_CATALOG["Link util"]
        device = DeviceProfile("tor-9", DeviceRole.TOR_SWITCH, seed=3)
        first = draw_metric_parameters(spec, device, 86400.0,
                                       rng=np.random.default_rng(device.metric_seed(spec.name)))
        second = draw_metric_parameters(spec, device, 86400.0,
                                        rng=np.random.default_rng(device.metric_seed(spec.name)))
        assert first == second

    def test_bandwidth_below_measurable_band(self):
        spec = METRIC_CATALOG["Link util"]
        for seed in range(30):
            device = DeviceProfile(f"d{seed}", DeviceRole.SERVER, seed=seed)
            params = draw_metric_parameters(spec, device, 86400.0)
            assert 0 < params.bandwidth_hz < spec.poll_rate / 2.0

    def test_broadband_fraction_zero_and_one(self):
        spec = METRIC_CATALOG["Link util"]
        device = DeviceProfile("d", DeviceRole.SERVER, seed=1)
        none = [draw_metric_parameters(spec, device, 86400.0, broadband_fraction=0.0,
                                       rng=np.random.default_rng(i)).broadband
                for i in range(20)]
        every = [draw_metric_parameters(spec, device, 86400.0, broadband_fraction=1.0,
                                        rng=np.random.default_rng(i)).broadband
                 for i in range(20)]
        assert not any(none)
        assert all(every)

    def test_rejects_bad_arguments(self):
        spec = METRIC_CATALOG["Link util"]
        device = DeviceProfile("d", DeviceRole.SERVER, seed=1)
        with pytest.raises(ValueError):
            draw_metric_parameters(spec, device, 0.0)
        with pytest.raises(ValueError):
            draw_metric_parameters(spec, device, 86400.0, broadband_fraction=1.5)

    def test_bandwidths_span_orders_of_magnitude(self):
        # The Figure 5 observation: per-device Nyquist rates vary widely.
        spec = METRIC_CATALOG["5-pct CPU util"]
        bandwidths = []
        for seed in range(200):
            device = DeviceProfile(f"d{seed}", DeviceRole.SERVER, seed=seed)
            bandwidths.append(draw_metric_parameters(spec, device, 86400.0).bandwidth_hz)
        assert max(bandwidths) / min(bandwidths) > 50


class TestFleet:
    def test_size_and_determinism(self):
        fleet_a = build_fleet(50, seed=1)
        fleet_b = build_fleet(50, seed=1)
        assert len(fleet_a) == 50
        assert [d.device_id for d in fleet_a] == [d.device_id for d in fleet_b]

    def test_unique_device_ids(self):
        fleet = build_fleet(100, seed=2)
        assert len({device.device_id for device in fleet}) == 100

    def test_role_mix_roughly_respected(self):
        fleet = build_fleet(400, seed=3)
        servers = [device for device in fleet if device.role == DeviceRole.SERVER]
        fraction = len(servers) / len(fleet)
        assert abs(fraction - DEFAULT_ROLE_MIX[DeviceRole.SERVER]) < 0.1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_fleet(0)
