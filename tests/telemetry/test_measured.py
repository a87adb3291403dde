"""Unit tests for the measured (file-backed) fleet dataset and the export path."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.analysis.survey import run_survey
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.signals.timeseries import TimeSeries
from repro.telemetry.measured import (MANIFEST_FORMAT, MANIFEST_NAME, MeasuredFleetDataset,
                                      MeasuredPair, MeasuredSourceSpec, TraceBlock,
                                      export_traces)
from repro.telemetry.metrics import METRIC_CATALOG
from repro.telemetry.source import BaseTraceSource, TraceSource


@pytest.fixture(scope="module")
def dataset():
    return FleetDataset(DatasetConfig(pair_count=28, seed=5))


@pytest.fixture(scope="module")
def fleet_dir(dataset, tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet") / "recording"
    export_traces(dataset, directory)
    return directory


class TestExport:
    def test_writes_manifest_and_one_file_per_pair(self, dataset, fleet_dir):
        manifest = json.loads((fleet_dir / MANIFEST_NAME).read_text())
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["trace_format"] == "rcb"
        assert manifest["trace_duration"] == dataset.config.trace_duration
        assert len(manifest["pairs"]) == len(dataset)
        assert len(list((fleet_dir / "traces").glob("pair-*.rcb"))) == len(dataset)

    def test_manifest_preserves_survey_order(self, dataset, fleet_dir):
        manifest = json.loads((fleet_dir / MANIFEST_NAME).read_text())
        assert manifest["metrics"] == dataset.metric_names()
        assert [(entry["metric"], entry["device"]) for entry in manifest["pairs"]] == \
            [pair.key for pair in dataset.pairs()]

    def test_refuses_to_overwrite_existing_fleet(self, dataset, fleet_dir):
        with pytest.raises(ValueError, match="already holds"):
            export_traces(dataset, fleet_dir)

    @pytest.mark.parametrize("fmt", ["parquet", "npz"])
    def test_rejects_unknown_trace_format(self, dataset, tmp_path, fmt):
        with pytest.raises(ValueError, match=r"choose one of \('rcb', 'csv'\)"):
            export_traces(dataset, tmp_path / "x", fmt=fmt)  # type: ignore[arg-type]

    def test_export_method_returns_measured_dataset(self, dataset, tmp_path):
        measured = dataset.export(tmp_path / "fleet")
        assert isinstance(measured, MeasuredFleetDataset)
        assert len(measured) == len(dataset)


class TestMeasuredFleetDataset:
    def test_implements_trace_source_protocol(self, fleet_dir):
        measured = MeasuredFleetDataset(fleet_dir)
        assert isinstance(measured, BaseTraceSource)
        assert isinstance(measured, TraceSource)

    def test_pair_table_matches_original(self, dataset, fleet_dir):
        measured = MeasuredFleetDataset(fleet_dir)
        assert len(measured) == len(dataset)
        assert measured.metric_names() == dataset.metric_names()
        assert measured.trace_duration == dataset.trace_duration
        assert [pair.key for pair in measured.pairs()] == \
            [pair.key for pair in dataset.pairs()]
        for original, recorded in zip(dataset.pairs(), measured.pairs()):
            assert recorded.parameters.true_nyquist_rate == \
                original.parameters.true_nyquist_rate

    def test_traces_byte_identical_to_original(self, dataset, fleet_dir):
        measured = MeasuredFleetDataset(fleet_dir)
        for (pair_a, trace_a), (pair_b, trace_b) in zip(dataset.traces(),
                                                        measured.traces()):
            assert pair_a.key == pair_b.key
            assert trace_a.interval == trace_b.interval
            assert np.array_equal(trace_a.values, trace_b.values)

    def test_csv_trace_format_round_trips(self, dataset, tmp_path):
        measured = dataset.export(tmp_path / "fleet-csv", fmt="csv")
        for (_, trace_a), (_, trace_b) in zip(dataset.traces(limit=4),
                                              measured.traces(limit=4)):
            assert trace_a.interval == trace_b.interval
            assert np.array_equal(trace_a.values, trace_b.values)

    def test_pairs_for_metric(self, dataset, fleet_dir):
        measured = MeasuredFleetDataset(fleet_dir)
        for metric in measured.metric_names():
            assert [p.key for p in measured.pairs_for_metric(metric)] == \
                [p.key for p in dataset.pairs_for_metric(metric)]

    def test_trace_batches_match_original(self, dataset, fleet_dir):
        measured = MeasuredFleetDataset(fleet_dir)
        for batch_a, batch_b in zip(dataset.trace_batches(chunk_size=4),
                                    measured.trace_batches(chunk_size=4)):
            assert [p.key for p in batch_a.pairs] == [p.key for p in batch_b.pairs]
            assert batch_a.interval == batch_b.interval
            assert np.array_equal(batch_a.values, batch_b.values)

    def test_load_rejects_interval_override(self, fleet_dir):
        measured = MeasuredFleetDataset(fleet_dir)
        pair = measured.pairs()[0]
        with pytest.raises(ValueError, match="fixed recorded interval"):
            measured.load(pair, interval=pair.interval / 2.0)

    def test_worker_spec_reopens_directory(self, fleet_dir):
        measured = MeasuredFleetDataset(fleet_dir)
        spec = measured.worker_spec()
        assert isinstance(spec, MeasuredSourceSpec)
        hash(spec)  # must be usable as a worker-side cache key
        reopened = spec.open()
        assert [p.key for p in reopened.pairs()] == [p.key for p in measured.pairs()]

    def test_offset_past_manifest_fails_loudly(self, fleet_dir):
        """A batch spec addressing pairs beyond the manifest must not
        silently yield nothing (it would drop survey records)."""
        measured = MeasuredFleetDataset(fleet_dir)
        with pytest.raises(ValueError, match="past the end"):
            list(measured.traces(offset=len(measured)))
        with pytest.raises(ValueError, match="past the end"):
            list(measured.trace_batches("Temperature", offset=10 ** 6))

    def test_metric_property_uses_catalogue(self, fleet_dir):
        measured = MeasuredFleetDataset(fleet_dir)
        pair = measured.pairs()[0]
        assert pair.metric is METRIC_CATALOG[pair.metric_name]

    def test_metric_property_falls_back_for_unknown_names(self):
        pair = MeasuredPair(metric_name="Custom sensor", device=None,  # type: ignore
                            parameters=None, interval=15.0, length=10,  # type: ignore
                            file="traces/pair-00000.rcb")
        spec = pair.metric
        assert spec.name == "Custom sensor"
        assert spec.poll_interval == 15.0


class TestCorruption:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match=MANIFEST_NAME):
            MeasuredFleetDataset(tmp_path)

    def test_unparseable_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ValueError, match="corrupt manifest"):
            MeasuredFleetDataset(tmp_path)

    def test_wrong_format_tag(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "format": "something-else/9", "trace_format": "rcb",
            "trace_duration": 1.0, "metrics": [], "pairs": []}))
        with pytest.raises(ValueError, match="unsupported manifest format"):
            MeasuredFleetDataset(tmp_path)

    def test_missing_manifest_keys(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": MANIFEST_FORMAT}))
        with pytest.raises(ValueError, match="corrupt manifest"):
            MeasuredFleetDataset(tmp_path)

    def test_garbage_trace_file(self, dataset, tmp_path):
        measured = dataset.export(tmp_path / "fleet")
        pair = measured.pairs()[0]
        (tmp_path / "fleet" / pair.file).write_bytes(b"not an rcb file")
        with pytest.raises(ValueError, match="corrupt or truncated trace file"):
            measured.load(pair)

    def test_missing_trace_file(self, dataset, tmp_path):
        measured = dataset.export(tmp_path / "fleet")
        pair = measured.pairs()[-1]
        (tmp_path / "fleet" / pair.file).unlink()
        with pytest.raises(ValueError, match="corrupt or truncated trace file"):
            measured.load(pair)

    def test_length_mismatch_against_manifest(self, dataset, tmp_path):
        measured = dataset.export(tmp_path / "fleet")
        pair = measured.pairs()[0]
        TraceBlock.from_trace(TimeSeries(np.zeros(3), pair.interval)).save_rcb(
            tmp_path / "fleet" / pair.file)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            measured.load(pair)

    def test_interval_mismatch_against_manifest(self, dataset, tmp_path):
        measured = dataset.export(tmp_path / "fleet")
        pair = measured.pairs()[0]
        TraceBlock.from_trace(TimeSeries(np.zeros(pair.length), pair.interval * 2.0)).save_rcb(
            tmp_path / "fleet" / pair.file)
        with pytest.raises(ValueError, match="interval"):
            measured.load(pair)

    def test_truncated_csv_trace_file(self, dataset, tmp_path):
        measured = dataset.export(tmp_path / "fleet", fmt="csv")
        pair = measured.pairs()[0]
        path = tmp_path / "fleet" / pair.file
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: len(lines) // 2]))
        with pytest.raises(ValueError, match="truncated"):
            measured.load(pair)

    def test_csv_timestamp_spacing_mismatch_against_manifest(self, dataset, tmp_path):
        """A csv recording whose timestamps disagree with the manifest
        interval must fail, not load as a silently mis-rated trace."""
        measured = dataset.export(tmp_path / "fleet", fmt="csv")
        pair = measured.pairs()[0]
        path = tmp_path / "fleet" / pair.file
        times = np.arange(pair.length) * (pair.interval * 2.0)  # recorded at half rate
        path.write_text("timestamp,value\n" +
                        "\n".join(f"{float(t)!r},0.0" for t in times) + "\n")
        with pytest.raises(ValueError, match="timestamp spacing"):
            measured.load(pair)

    def test_metrics_list_must_cover_every_pair(self, dataset, tmp_path):
        """Pairs whose metric is missing from the manifest 'metrics' list
        would be silently skipped by the survey loop -- reject at open."""
        directory = tmp_path / "fleet"
        export_traces(dataset, directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["metrics"] = manifest["metrics"][:-1]
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="silently drop"):
            MeasuredFleetDataset(directory)

    def test_npz_fleet_asks_for_re_export(self, tmp_path):
        """A fleet written with the retired npz trace format fails at open,
        naming the manifest and how to rebuild the fleet."""
        (tmp_path / "traces").mkdir()
        (tmp_path / "traces" / "pair-00000.npz").write_bytes(b"PK\x03\x04")
        manifest_path = tmp_path / MANIFEST_NAME
        manifest_path.write_text(json.dumps({
            "format": MANIFEST_FORMAT, "trace_format": "npz", "trace_duration": 3600.0,
            "metrics": ["Temperature"],
            "pairs": [{"metric": "Temperature", "device": "tor-0000", "interval": 300.0,
                       "length": 12, "true_nyquist_rate": 0.001,
                       "file": "traces/pair-00000.npz"}]}))
        with pytest.raises(ValueError, match="npz trace files.*export-fleet.*re-ingest") \
                as error:
            MeasuredFleetDataset(tmp_path)
        assert str(manifest_path) in str(error.value)

    def test_duplicate_pair_is_rejected(self, dataset, tmp_path):
        """A pair listed twice would be surveyed twice (one extra record)."""
        directory = tmp_path / "fleet"
        export_traces(dataset, directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["pairs"].insert(1, dict(manifest["pairs"][0]))
        manifest_path.write_text(json.dumps(manifest))
        first = manifest["pairs"][0]
        with pytest.raises(ValueError, match="listed twice") as error:
            MeasuredFleetDataset(directory)
        assert str(manifest_path) in str(error.value)
        assert repr((first["metric"], first["device"])) in str(error.value)

    def test_metrics_list_rejects_duplicates(self, dataset, tmp_path):
        directory = tmp_path / "fleet"
        export_traces(dataset, directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["metrics"].append(manifest["metrics"][0])
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="duplicate"):
            MeasuredFleetDataset(directory)


class TestMeasuredWithoutGroundTruth:
    def test_nan_true_rate_survives_round_trip(self, dataset, tmp_path):
        """Genuinely measured data has no planted ground truth: NaN entries
        in the manifest must load as NaN, not crash."""
        directory = tmp_path / "fleet"
        export_traces(dataset, directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        for entry in manifest["pairs"]:
            entry["true_nyquist_rate"] = float("nan")
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        measured = MeasuredFleetDataset(directory)
        assert all(math.isnan(pair.parameters.true_nyquist_rate)
                   for pair in measured.pairs())


class TestNonFiniteSamples:
    """A recording with a NaN or infinite sample must fail, naming its file,
    rather than be surveyed as a reliable trace."""

    @pytest.fixture(scope="class")
    def small(self):
        return FleetDataset(DatasetConfig(pair_count=12, seed=5))

    @staticmethod
    def poison_value(directory, pair, fmt):
        path = directory / pair.file
        if fmt == "rcb":
            block = TraceBlock.load_rcb(path)
            values = np.array(block.values)
            values[4] = np.nan
            TraceBlock.from_trace(TimeSeries(values, float(block.interval),
                                             start_time=float(block.start_time))).save_rcb(path)
        else:
            lines = path.read_text().splitlines()
            timestamp, _ = lines[5].split(",")
            lines[5] = f"{timestamp},nan"
            path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("fmt", ["rcb", "csv"])
    def test_non_finite_value_raises_naming_the_file(self, small, tmp_path, fmt):
        measured = small.export(tmp_path / "fleet", fmt=fmt)
        path = self.poison_value(tmp_path / "fleet", measured.pairs()[0], fmt)
        with pytest.raises(ValueError, match=f"{path.name}.*non-finite value"):
            measured.load(measured.pairs()[0])
        with pytest.raises(ValueError, match=path.name):
            run_survey(MeasuredFleetDataset(tmp_path / "fleet"), on_error="raise")

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_csv_timestamp_raises_naming_the_file(self, small, tmp_path, text):
        measured = small.export(tmp_path / "fleet", fmt="csv")
        pair = measured.pairs()[0]
        path = tmp_path / "fleet" / pair.file
        lines = path.read_text().splitlines()
        _, value = lines[5].split(",")
        lines[5] = f"{text},{value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{path.name}.*non-finite timestamp at row 5"):
            measured.load(pair)

    @pytest.mark.parametrize("fmt", ["rcb", "csv"])
    def test_quarantine_isolates_the_poisoned_pair(self, small, tmp_path, fmt):
        measured = small.export(tmp_path / "fleet", fmt=fmt)
        clean = run_survey(measured).records
        poisoned = measured.pairs()[0]
        self.poison_value(tmp_path / "fleet", poisoned, fmt)
        survey = run_survey(MeasuredFleetDataset(tmp_path / "fleet"), on_error="quarantine")
        assert [(f.metric_name, f.device_id) for f in survey.quarantined] == [poisoned.key]
        assert survey.records == [record for record in clean
                                  if (record.metric_name, record.device_id) != poisoned.key]
