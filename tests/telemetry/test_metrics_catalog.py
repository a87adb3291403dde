"""Unit tests for the metric catalogue."""

from __future__ import annotations

import pytest

from repro.telemetry.metrics import (FIGURE4_METRICS, FIGURE5_ORDER, METRIC_CATALOG,
                                     MetricFamily)


class TestCatalog:
    def test_fourteen_metrics(self):
        # The paper's survey covers 14 distinct metrics.
        assert len(METRIC_CATALOG) == 14

    def test_all_families_present(self):
        families = {spec.family for spec in METRIC_CATALOG.values()}
        assert families == set(MetricFamily)

    def test_poll_rates_positive(self):
        for spec in METRIC_CATALOG.values():
            assert spec.poll_interval > 0
            assert spec.poll_rate == pytest.approx(1.0 / spec.poll_interval)

    def test_quantization_steps_positive(self):
        for spec in METRIC_CATALOG.values():
            assert spec.quantization_step > 0

    def test_bounded_metrics_have_consistent_bounds(self):
        for spec in METRIC_CATALOG.values():
            if spec.minimum is not None and spec.maximum is not None:
                assert spec.maximum > spec.minimum

    def test_percentages_bounded_to_100(self):
        for name in ("5-pct CPU util", "Memory usage", "Link util"):
            assert METRIC_CATALOG[name].maximum == 100.0

    def test_figure5_order_covers_all_metrics(self):
        assert set(FIGURE5_ORDER) == set(METRIC_CATALOG)
        assert len(FIGURE5_ORDER) == 14

    def test_figure4_metrics_are_a_subset(self):
        assert set(FIGURE4_METRICS) <= set(METRIC_CATALOG)
        assert len(FIGURE4_METRICS) == 12

    def test_catalog_lookup(self):
        assert METRIC_CATALOG["Temperature"].units == "degC"
        with pytest.raises(KeyError):
            METRIC_CATALOG["Does not exist"]

    def test_temperature_polled_every_five_minutes(self):
        # Figure 6 of the paper: the production temperature signal is
        # "sampled every 5 minutes".
        assert METRIC_CATALOG["Temperature"].poll_interval == 300.0
