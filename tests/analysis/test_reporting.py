"""Unit tests for reporting helpers (CDFs, box stats, tables, CSV)."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from repro.analysis.reporting import (ascii_bar_chart, ascii_cdf, box_stats, cdf_at,
                                      empirical_cdf, format_table, write_csv)


class TestCdf:
    def test_empirical_cdf_sorted_and_ends_at_one(self):
        xs, ys = empirical_cdf([3.0, 1.0, 2.0])
        np.testing.assert_allclose(xs, [1.0, 2.0, 3.0])
        assert ys[-1] == pytest.approx(1.0)
        assert ys[0] == pytest.approx(1.0 / 3.0)

    def test_empirical_cdf_empty(self):
        xs, ys = empirical_cdf([])
        assert xs.size == 0 and ys.size == 0

    def test_cdf_at_thresholds(self):
        result = cdf_at([1.0, 2.0, 3.0, 4.0], [2.0, 10.0, 0.5])
        assert result[2.0] == pytest.approx(0.5)
        assert result[10.0] == pytest.approx(1.0)
        assert result[0.5] == pytest.approx(0.0)

    def test_cdf_at_empty_values(self):
        result = cdf_at([], [1.0])
        assert math.isnan(result[1.0])


class TestBoxStats:
    def test_five_number_summary(self):
        stats = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.minimum == 1.0
        assert stats.median == 3.0
        assert stats.maximum == 5.0
        assert stats.count == 5
        assert stats.p25 == pytest.approx(2.0)
        assert stats.p75 == pytest.approx(4.0)

    def test_nan_values_dropped(self):
        stats = box_stats([1.0, float("nan"), 3.0])
        assert stats.count == 2
        assert stats.mean == pytest.approx(2.0)

    def test_empty_input(self):
        stats = box_stats([])
        assert stats.count == 0
        assert math.isnan(stats.median)

    def test_as_dict_keys(self):
        keys = set(box_stats([1.0]).as_dict())
        assert keys == {"min", "p25", "median", "p75", "max", "mean", "count"}


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1.0}, {"name": "bb", "value": 2.5}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_table_handles_nan_and_large_numbers(self):
        text = format_table([{"x": float("nan"), "y": 1.23e9, "z": 0.000012}])
        assert "nan" in text
        assert "e+09" in text or "1.23" in text

    def test_ascii_bar_chart_contains_labels(self):
        chart = ascii_bar_chart({"Temperature": 0.9, "Link util": 0.5}, maximum=1.0)
        assert "Temperature" in chart
        assert "#" in chart

    def test_ascii_bar_chart_empty(self):
        assert ascii_bar_chart({}) == "(no data)"

    def test_ascii_cdf_renders_grid(self):
        chart = ascii_cdf([1.0, 10.0, 100.0, 1000.0])
        assert "*" in chart
        assert "log10" in chart

    def test_ascii_cdf_empty(self):
        assert ascii_cdf([]) == "(no data)"

    def test_ascii_cdf_linear_axis_without_positive_values(self):
        chart = ascii_cdf([-3.0, -1.0, 0.0])
        assert "*" in chart
        assert "log10" not in chart


class TestCsv:
    def test_write_and_read_back(self, tmp_path):
        rows = [{"metric": "Temperature", "ratio": 12.5}, {"metric": "Link util", "ratio": 3.0}]
        path = write_csv(tmp_path / "out" / "data.csv", rows)
        assert path.exists()
        with path.open() as handle:
            read = list(csv.DictReader(handle))
        assert read[0]["metric"] == "Temperature"
        assert float(read[1]["ratio"]) == 3.0

    def test_write_empty_rows(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", [])
        assert path.read_text() == ""

    def test_columns_follow_the_first_row(self, tmp_path):
        rows = [{"b": 2, "a": 1}, {"a": 3, "c": 4}]
        path = write_csv(tmp_path / "cols.csv", rows)
        assert path.read_text().splitlines() == ["b,a", "2,1", ",3"]
