"""The streaming gNMI/SNMP importer: round trips, corruption, bounded memory.

Three layers of guarantees are pinned here:

* **Round trip** -- a synthetic fleet exported as a raw dump (either wire
  format) and re-ingested surveys bit-identically to the in-memory fleet
  (per (metric, device) pair; ingested directories list pairs in
  canonical sorted order), at any worker count.
* **Differential corruption** -- structurally harmless mutations of a
  dump (shuffled line order, duplicated updates, reversed/ non-monotonic
  streams, unknown metric paths riding along) ingest to the *same* fleet
  as the clean dump, while malformed records are rejected with a
  ``ValueError`` naming the file and line.
* **Bounded memory** -- the :class:`PairAccumulator` never buffers more
  than its budget, spills make it to disk and back losslessly, and the
  spilled result is identical to an unbounded ingest.
* **Block-reader exactness** -- the gNMI fast path (one regex pass per
  block of canonical lines) publishes exactly the bytes and quarantine
  records of parsing every line with ``_parse_gnmi_line``.
"""

from __future__ import annotations

import gc
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.survey import run_survey
from repro.faults import FaultPlan, corrupt_dump_lines
from repro.records import (FailureRecord, FailureRecordBlock,
                           MemoryRecordSink)
from repro.cli import main
from repro.telemetry import ingest as ingest_module
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.ingest import (BLOCK_BYTES, GNMI_FORMAT, METRIC_PATHS,
                                    SNMP_FORMAT, PairAccumulator, _parse_gnmi_line,
                                    ingest_dump, metric_from_path, open_export,
                                    sniff_format)
from repro.telemetry.measured import MeasuredFleetDataset

#: Small, fast fleet shared by the suite: three families (gauge, counter,
#: sparse error bursts), two hours per trace.
INGEST_METRICS = ("Temperature", "Unicast bytes", "FCS errors")


@pytest.fixture(scope="module")
def fleet() -> FleetDataset:
    return FleetDataset(DatasetConfig(pair_count=9, seed=5, trace_duration=7200.0,
                                      metrics=INGEST_METRICS))


@pytest.fixture(scope="module")
def gnmi_dump(fleet, tmp_path_factory):
    return fleet.export_gnmi_dump(tmp_path_factory.mktemp("dumps") / "fleet.jsonl")


@pytest.fixture(scope="module")
def snmp_dump(fleet, tmp_path_factory):
    return fleet.export_snmp_dump(tmp_path_factory.mktemp("dumps") / "fleet.csv")


def assert_same_fleet(a: MeasuredFleetDataset, b: MeasuredFleetDataset,
                      ignore_stats: bool = True) -> None:
    """Two ingested directories hold identical fleets (traces bit for bit)."""
    manifest_a = json.loads((a.directory / "manifest.json").read_text())
    manifest_b = json.loads((b.directory / "manifest.json").read_text())
    if ignore_stats:
        # The accumulator counters (peak, spill writes) legitimately depend
        # on stream order; the fleet content must not.
        for manifest in (manifest_a, manifest_b):
            manifest.pop("ingest", None)
            for entry in manifest["pairs"]:
                entry.pop("ingest", None)
    assert manifest_a == manifest_b
    for pair_a, pair_b in zip(a.pairs(), b.pairs()):
        trace_a, trace_b = a.load(pair_a), b.load(pair_b)
        assert trace_a.interval == trace_b.interval
        assert trace_a.start_time == trace_b.start_time
        assert np.array_equal(trace_a.values, trace_b.values)


def assert_surveys_match(reference, ingested) -> None:
    """Ingested records equal the reference's bit for bit, keyed by pair.

    Ingested fleets list pairs in canonical (metric, device) order while a
    synthetic fleet keeps its own seeded order, so records are aligned by
    key; every estimator-derived field must then match exactly
    (``true_nyquist_rate`` is NaN for ingested data -- no ground-truth
    channel in a raw telemetry stream -- and is asserted to be so).
    """
    by_key = {(record.metric_name, record.device_id): record
              for record in reference.records}
    ingested_records = ingested.records
    assert len(ingested_records) == len(by_key)
    for record in ingested_records:
        expected = by_key[(record.metric_name, record.device_id)]
        assert record.current_rate == expected.current_rate
        assert record.nyquist_rate == expected.nyquist_rate
        assert (record.reduction_ratio == expected.reduction_ratio
                or (np.isnan(record.reduction_ratio)
                    and np.isnan(expected.reduction_ratio)))
        assert record.category is expected.category
        assert record.reliable == expected.reliable
        assert record.trace_duration == expected.trace_duration
        assert np.isnan(record.true_nyquist_rate)
    for key, left in reference.headline().items():
        right = ingested.headline()[key]
        assert left == right or (np.isnan(left) and np.isnan(right)), key


# ----------------------------------------------------------------------
class TestOpenExport:
    def test_sniffs_gnmi(self, gnmi_dump):
        assert sniff_format(gnmi_dump) == GNMI_FORMAT
        assert open_export(gnmi_dump).format == GNMI_FORMAT

    def test_sniffs_snmp(self, snmp_dump):
        assert sniff_format(snmp_dump) == SNMP_FORMAT
        assert open_export(snmp_dump).format == SNMP_FORMAT

    def test_explicit_format_wins(self, gnmi_dump):
        assert open_export(gnmi_dump, GNMI_FORMAT).format == GNMI_FORMAT

    def test_unknown_format_rejected(self, gnmi_dump):
        with pytest.raises(ValueError, match="unknown export format"):
            open_export(gnmi_dump, "netflow")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            open_export(tmp_path / "nope.jsonl")
        with pytest.raises(ValueError, match="cannot read"):
            open_export(tmp_path / "nope.jsonl", GNMI_FORMAT)

    def test_unrecognised_content_rejected(self, tmp_path):
        path = tmp_path / "what.txt"
        path.write_text("hello world\n")
        with pytest.raises(ValueError, match="unrecognised export format"):
            open_export(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            open_export(path)
        # An explicit format must not skip the emptiness check: there is
        # still nothing to ingest, and the error still names the path.
        with pytest.raises(ValueError, match=r"empty\.jsonl.*empty file"):
            open_export(path, GNMI_FORMAT)

    def test_whitespace_only_file_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(" \n\t\n   \n")
        with pytest.raises(ValueError, match=r"blank\.csv.*empty file"):
            sniff_format(path)
        with pytest.raises(ValueError, match="whitespace only"):
            open_export(path, SNMP_FORMAT)

    def test_catalogue_paths_round_trip(self):
        for name, token in METRIC_PATHS.items():
            assert metric_from_path(token) == name
        assert metric_from_path("/vendor/x/mystery") == "/vendor/x/mystery"


# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("dump_fixture", ["gnmi_dump", "snmp_dump"])
    def test_ingested_fleet_surveys_bit_identically(self, request, fleet,
                                                    dump_fixture, tmp_path):
        dump = request.getfixturevalue(dump_fixture)
        ingested = ingest_dump(dump, tmp_path / "fleet")
        assert len(ingested) == len(fleet)
        assert sorted(ingested.metric_names()) == sorted(INGEST_METRICS)
        assert_surveys_match(run_survey(fleet), run_survey(ingested))

    def test_worker_counts_agree_byte_for_byte(self, gnmi_dump, tmp_path):
        ingested = ingest_dump(gnmi_dump, tmp_path / "fleet")
        single = run_survey(ingested, chunk_size=4)
        pooled = run_survey(ingested, workers=2, chunk_size=4)
        blocks = list(single.iter_blocks())
        pooled_blocks = list(pooled.iter_blocks())
        assert len(blocks) == len(pooled_blocks) > 0
        for a, b in zip(blocks, pooled_blocks):
            assert a.metric_name == b.metric_name
            assert np.array_equal(a.device_ids, b.device_ids)
            assert np.array_equal(a.nyquist_rate, b.nyquist_rate)
            assert np.array_equal(a.reduction_ratio, b.reduction_ratio, equal_nan=True)
            assert np.array_equal(a.category, b.category)

    def test_manifest_records_provenance(self, gnmi_dump, tmp_path):
        ingest_dump(gnmi_dump, tmp_path / "fleet")
        manifest = json.loads((tmp_path / "fleet" / "manifest.json").read_text())
        summary = manifest["ingest"]
        assert summary["format"] == GNMI_FORMAT
        assert summary["updates"] == gnmi_dump.read_bytes().count(b"\n")
        assert summary["pairs_skipped"] == []
        for entry in manifest["pairs"]:
            stats = entry["ingest"]
            assert stats["raw_samples"] == stats["samples"]
            assert stats["duplicates_dropped"] == 0
            assert stats["jitter_rms_fraction"] == 0.0
            assert stats["resampled"] is False
            assert stats["dominant_interval"] == entry["interval"]
        # Pairs are listed in canonical sorted order, grouped per metric.
        keys = [(entry["metric"], entry["device"]) for entry in manifest["pairs"]]
        assert keys == sorted(keys)

    def test_used_directory_rejected(self, gnmi_dump, tmp_path):
        ingest_dump(gnmi_dump, tmp_path / "fleet")
        with pytest.raises(ValueError, match="already holds a measured fleet"):
            ingest_dump(gnmi_dump, tmp_path / "fleet")

    def test_file_destination_rejected(self, gnmi_dump, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        with pytest.raises(ValueError, match="not a directory"):
            ingest_dump(gnmi_dump, target)
        assert target.read_text() == "not a directory"

    def test_failed_ingest_removes_created_directory(self, tmp_path):
        dump = tmp_path / "bad.jsonl"
        dump.write_text('{"timestamp": 0.0, "device": "d", "path": "/x", '
                        '"value": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            ingest_dump(dump, tmp_path / "fleet")
        assert not (tmp_path / "fleet").exists()

    def test_leading_blank_lines_are_tolerated(self, gnmi_dump, snmp_dump, tmp_path):
        # A sniffable file must be ingestible: both readers skip leading
        # blank lines instead of treating them as the first record.
        padded_gnmi = tmp_path / "padded.jsonl"
        padded_gnmi.write_text("\n" + gnmi_dump.read_text())
        padded_snmp = tmp_path / "padded.csv"
        padded_snmp.write_text("\n" + snmp_dump.read_text())
        assert len(ingest_dump(padded_gnmi, tmp_path / "g")) == 9
        assert len(ingest_dump(padded_snmp, tmp_path / "s")) == 9

    def test_csv_trace_format_round_trips(self, fleet, gnmi_dump, tmp_path):
        ingested = ingest_dump(gnmi_dump, tmp_path / "fleet", trace_format="csv")
        assert ingested.fmt == "csv"
        assert_surveys_match(run_survey(fleet), run_survey(ingested))

    def test_retired_npz_trace_format_is_refused(self, gnmi_dump, tmp_path):
        with pytest.raises(ValueError, match=r"'npz'; choose one of \('rcb', 'csv'\)"):
            ingest_dump(gnmi_dump, tmp_path / "fleet", trace_format="npz")  # type: ignore[arg-type]
        assert not (tmp_path / "fleet").exists()


# ----------------------------------------------------------------------
class TestBoundedMemory:
    def test_budget_bounds_peak_and_result_is_identical(self, gnmi_dump, tmp_path):
        bounded = ingest_dump(gnmi_dump, tmp_path / "bounded",
                              memory_budget_samples=128)
        unbounded = ingest_dump(gnmi_dump, tmp_path / "unbounded")
        summary = json.loads(
            (tmp_path / "bounded" / "manifest.json").read_text())["ingest"]
        assert summary["memory_budget_samples"] == 128
        # Run-dependent counters live on the returned dataset's stats, not
        # in the manifest (whose bytes depend only on the update set).
        stats = bounded.ingest_stats
        assert stats.workers == 1 and stats.shards == ()
        assert stats.memory_budget_samples == 128
        assert 0 < stats.peak_buffered_samples <= 128
        assert stats.spilled_samples > 0 and stats.spill_writes > 0
        assert "peak_buffered_samples" not in summary
        assert_same_fleet(bounded, unbounded)

    def test_scratch_files_are_cleaned_up(self, gnmi_dump, tmp_path):
        ingest_dump(gnmi_dump, tmp_path / "fleet", memory_budget_samples=64)
        assert not (tmp_path / "fleet" / ".ingest-scratch").exists()

    def test_accumulator_spills_largest_buffers_first(self, tmp_path):
        accumulator = PairAccumulator(tmp_path / "scratch", memory_budget_samples=10)
        accumulator.extend(("m", "big"), np.arange(8.0), np.ones(8))
        # Two more samples hit the budget -> spill.
        accumulator.extend(("m", "small"), [0.0, 1.0], [2.0, 3.0])
        assert accumulator.buffered_samples <= 5
        assert accumulator.spilled_samples >= 8
        times, values = accumulator.samples(("m", "big"))
        assert np.array_equal(times, np.arange(8.0))
        times, values = accumulator.samples(("m", "small"))
        assert np.array_equal(values, [2.0, 3.0])
        accumulator.close()
        assert not (tmp_path / "scratch").exists()

    def test_accumulator_rejects_tiny_budget(self, tmp_path):
        with pytest.raises(ValueError, match="memory_budget_samples"):
            PairAccumulator(tmp_path / "scratch", memory_budget_samples=1)

    @pytest.mark.parametrize("seed", range(6))
    def test_accumulator_matches_list_reference(self, tmp_path, seed):
        # Random chunk sizes (empty ones and ones past the budget among
        # them) over interleaved pairs, with reads mid-stream: every
        # pair's samples equal plain list accumulation, spilled or not.
        rng = np.random.default_rng(seed)
        budget = int(rng.choice([2, 3, 16, 64, 1000]))
        keys = [("m", f"d{index}") for index in range(int(rng.integers(1, 6)))]
        reference: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
        with PairAccumulator(tmp_path / "scratch", budget) as accumulator:
            for step in range(60):
                key = keys[int(rng.integers(len(keys)))]
                count = int(rng.integers(0, 2 * budget + 2))
                times, values = rng.normal(size=count), rng.normal(size=count)
                accumulator.extend(key, times, values)
                reference.setdefault(key, ([], []))
                reference[key][0].extend(times.tolist())
                reference[key][1].extend(values.tolist())
                assert accumulator.buffered_samples <= budget
                if step % 17 == 0:
                    read = accumulator.samples(key)
                    assert read[0].tobytes() == np.array(reference[key][0]).tobytes()
            assert accumulator.keys() == list(reference)
            for key, (times, values) in reference.items():
                read_times, read_values = accumulator.samples(key)
                assert read_times.tobytes() == np.array(times, dtype=np.float64).tobytes()
                assert read_values.tobytes() == np.array(values, dtype=np.float64).tobytes()
            total = sum(len(times) for times, _ in reference.values())
            assert accumulator.total_samples == total
            assert accumulator.spilled_samples + accumulator.buffered_samples == total

    def test_accumulator_buffers_copies(self, tmp_path):
        # A buffer holds its own copy: writing to the array a chunk was
        # sliced from does not change the buffered samples.
        times, values = np.arange(6.0), np.arange(6.0) * 2
        with PairAccumulator(tmp_path / "scratch", memory_budget_samples=100) as accumulator:
            accumulator.extend(("m", "d"), times[:3], values[:3])
            times[:], values[:] = -1.0, -1.0
            read_times, read_values = accumulator.samples(("m", "d"))
        assert list(read_times) == [0.0, 1.0, 2.0]
        assert list(read_values) == [0.0, 2.0, 4.0]

    @pytest.mark.parametrize("budget, counters", [
        (64, (1512, 64, 1488, 38)),
        (128, (1512, 128, 1440, 24)),
        (4096, (1512, 1512, 0, 0)),
    ])
    def test_ingest_counters_are_pinned(self, gnmi_dump, tmp_path, budget, counters):
        # (updates, peak_buffered_samples, spilled_samples, spill_writes):
        # the spill policy (largest buffers first, down to half the
        # budget) and its per-pair segment count, fixed.
        stats = ingest_dump(gnmi_dump, tmp_path / "fleet",
                            memory_budget_samples=budget).ingest_stats
        assert (stats.updates, stats.peak_buffered_samples, stats.spilled_samples,
                stats.spill_writes) == counters

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_failed_ingest_closes_its_spill_log(self, large_gnmi_lines, tmp_path,
                                                monkeypatch):
        # The malformed line is in the last block, past many spills, so the
        # log is open when the ingest raises; a leaked handle raises
        # ResourceWarning inside its finaliser once collected.
        lines = list(large_gnmi_lines)
        lines[-2] = "not json\n"
        dump = tmp_path / "broken.jsonl"
        dump.write_text("".join(lines))
        spills: list[int] = []

        class Recording(PairAccumulator):
            def close(self) -> None:
                spills.append(self.spill_writes)
                super().close()

        monkeypatch.setattr(ingest_module, "PairAccumulator", Recording)
        with pytest.raises(ValueError, match=f"{dump}, line {len(lines) - 1}:"):
            ingest_dump(dump, tmp_path / "fleet", memory_budget_samples=64)
        gc.collect()
        assert spills and spills[0] > 0
        assert not list(tmp_path.rglob(".ingest-scratch"))
        assert not (tmp_path / "fleet").exists()
        assert not (tmp_path / "fleet.partial").exists()


# ----------------------------------------------------------------------
class TestDifferentialCorruption:
    """Each mutation either ingests identically to the clean dump or is
    rejected with a ``ValueError`` naming the file and line."""

    @pytest.fixture()
    def clean(self, gnmi_dump, tmp_path):
        return ingest_dump(gnmi_dump, tmp_path / "clean")

    def test_shuffled_interleaving_changes_nothing(self, gnmi_dump, clean, tmp_path):
        lines = gnmi_dump.read_text().splitlines(keepends=True)
        random.Random(13).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(lines))
        # Shuffle with a small budget so spill order differs too.
        ingested = ingest_dump(shuffled, tmp_path / "fleet",
                               memory_budget_samples=96)
        assert_same_fleet(clean, ingested)

    def test_reversed_stream_changes_nothing(self, gnmi_dump, clean, tmp_path):
        lines = gnmi_dump.read_text().splitlines(keepends=True)
        reversed_dump = tmp_path / "reversed.jsonl"
        reversed_dump.write_text("".join(reversed(lines)))
        ingested = ingest_dump(reversed_dump, tmp_path / "fleet")
        assert_same_fleet(clean, ingested)

    def test_duplicated_updates_are_dropped(self, gnmi_dump, clean, tmp_path):
        lines = gnmi_dump.read_text().splitlines(keepends=True)
        duplicated = lines + random.Random(7).sample(lines, len(lines) // 10)
        dump = tmp_path / "duplicated.jsonl"
        dump.write_text("".join(duplicated))
        ingested = ingest_dump(dump, tmp_path / "fleet")
        assert_same_fleet(clean, ingested)
        manifest = json.loads((tmp_path / "fleet" / "manifest.json").read_text())
        assert sum(entry["ingest"]["duplicates_dropped"]
                   for entry in manifest["pairs"]) == len(lines) // 10

    def test_conflicting_duplicate_timestamps_resolve_by_content(self, gnmi_dump,
                                                                 tmp_path):
        # A retried poll can report a *different* value at the same
        # timestamp; the importer keeps the smallest value of each distinct
        # timestamp, so the outcome depends only on the update set -- the
        # conflict-carrying dump ingests identically however its lines are
        # ordered.
        lines = gnmi_dump.read_text().splitlines(keepends=True)
        update = json.loads(lines[0])
        original = update["value"]
        update["value"] = original + 1000.0
        conflicted = lines + [json.dumps(update) + "\n"]
        dump = tmp_path / "conflict.jsonl"
        dump.write_text("".join(conflicted))
        random.Random(5).shuffle(conflicted)
        shuffled = tmp_path / "conflict-shuffled.jsonl"
        shuffled.write_text("".join(conflicted))
        first = ingest_dump(dump, tmp_path / "first")
        again = ingest_dump(shuffled, tmp_path / "again")
        assert_same_fleet(first, again)
        # The smaller of the two conflicting values won, in both orders.
        key = (metric_from_path(update["path"]), update["device"])
        pair = next(p for p in first.pairs() if p.key == key)
        assert first.load(pair).values[0] == min(original, update["value"])

    def test_unknown_metric_paths_ride_along(self, gnmi_dump, clean, tmp_path):
        lines = gnmi_dump.read_text().splitlines(keepends=True)
        extra = [json.dumps({"timestamp": 60.0 * index, "device": "vendor-box-1",
                             "path": "/vendor/x/mystery-counter", "value": float(index)})
                 + "\n" for index in range(16)]
        dump = tmp_path / "extra.jsonl"
        dump.write_text("".join(lines + extra))
        ingested = ingest_dump(dump, tmp_path / "fleet")
        assert "/vendor/x/mystery-counter" in ingested.metric_names()
        extra_pairs = ingested.pairs_for_metric("/vendor/x/mystery-counter")
        assert [pair.device.device_id for pair in extra_pairs] == ["vendor-box-1"]
        assert extra_pairs[0].interval == 60.0
        # The known pairs are untouched by the stranger riding along.
        known = {pair.key for pair in clean.pairs()}
        for pair in ingested.pairs():
            if pair.key in known:
                reference = next(p for p in clean.pairs() if p.key == pair.key)
                assert np.array_equal(ingested.load(pair).values,
                                      clean.load(reference).values)
        # And the unknown metric surveys through the generic gauge spec.
        result = run_survey(ingested, metrics=["/vendor/x/mystery-counter"])
        assert len(result) == 1

    def test_jittered_timestamps_are_regularised(self, fleet, gnmi_dump, tmp_path):
        # Perturb every timestamp by up to 10 % of the interval: the trace
        # must come back on the dominant-interval grid, flagged as
        # re-sampled, with the jitter visible in the manifest stats.
        rng = random.Random(3)
        mutated = []
        for line in gnmi_dump.read_text().splitlines():
            update = json.loads(line)
            if update["path"] == METRIC_PATHS["Temperature"]:
                update["timestamp"] += rng.uniform(-30.0, 30.0)
            mutated.append(json.dumps(update) + "\n")
        dump = tmp_path / "jittered.jsonl"
        dump.write_text("".join(mutated))
        ingested = ingest_dump(dump, tmp_path / "fleet")
        manifest = json.loads((tmp_path / "fleet" / "manifest.json").read_text())
        for entry in manifest["pairs"]:
            stats = entry["ingest"]
            if entry["metric"] == "Temperature":
                assert stats["resampled"] is True
                assert stats["jitter_rms_fraction"] > 0.0
                assert entry["interval"] == pytest.approx(300.0, rel=0.05)
            else:
                assert stats["resampled"] is False
        # Jitter below half an interval: nearest-neighbour regularisation
        # recovers nearly every sample value.
        result = run_survey(ingested)
        assert len(result) == len(fleet)

    # ------------------------- rejected inputs -------------------------
    def test_truncated_line_names_file_and_line(self, gnmi_dump, tmp_path):
        lines = gnmi_dump.read_text().splitlines(keepends=True)
        dump = tmp_path / "truncated.jsonl"
        dump.write_text("".join(lines) + lines[0][: len(lines[0]) // 2])
        with pytest.raises(ValueError,
                           match=rf"truncated\.jsonl, line {len(lines) + 1}"):
            ingest_dump(dump, tmp_path / "fleet")

    def test_missing_field_names_file_and_line(self, tmp_path):
        dump = tmp_path / "missing.jsonl"
        dump.write_text('{"timestamp": 0.0, "device": "d", "value": 1.0}\n')
        with pytest.raises(ValueError, match=r"missing\.jsonl, line 1.*\['path'\]"):
            ingest_dump(dump, tmp_path / "fleet")

    def test_non_numeric_value_names_file_and_line(self, tmp_path):
        dump = tmp_path / "bad.jsonl"
        dump.write_text(
            '{"timestamp": 0.0, "device": "d", "path": "/x", "value": 1.0}\n'
            '{"timestamp": 30.0, "device": "d", "path": "/x", "value": "high"}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl, line 2.*'value'"):
            ingest_dump(dump, tmp_path / "fleet")

    def test_non_finite_timestamp_names_file_and_line(self, tmp_path):
        dump = tmp_path / "inf.jsonl"
        dump.write_text('{"timestamp": Infinity, "device": "d", "path": "/x", '
                        '"value": 1.0}\n')
        with pytest.raises(ValueError, match=r"inf\.jsonl, line 1.*finite"):
            ingest_dump(dump, tmp_path / "fleet")

    def test_snmp_short_row_names_file_and_line(self, snmp_dump, tmp_path):
        lines = snmp_dump.read_text().splitlines(keepends=True)
        cells = lines[1].rstrip("\r\n").split(",")
        lines[1] = ",".join(cells[:-2]) + "\n"
        dump = tmp_path / "short.csv"
        dump.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"short\.csv, line 2.*columns"):
            ingest_dump(dump, tmp_path / "fleet")

    def test_snmp_bad_cell_names_file_line_and_column(self, snmp_dump, tmp_path):
        lines = snmp_dump.read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\r\n").split(",")
        cells = lines[3].rstrip("\r\n").split(",")
        column = next(index for index, cell in enumerate(cells[2:], start=2) if cell)
        cells[column] = "3.1.4.1"
        lines[3] = ",".join(cells) + "\n"
        dump = tmp_path / "bad.csv"
        dump.write_text("".join(lines))
        metric = metric_from_path(header[column])
        with pytest.raises(ValueError, match=rf"bad\.csv, line 4.*{metric!r}"):
            ingest_dump(dump, tmp_path / "fleet")

    def test_snmp_bad_header_rejected(self, tmp_path):
        dump = tmp_path / "head.csv"
        dump.write_text("time,node,oid\n0,server,1\n")
        with pytest.raises(ValueError, match=r"head\.csv.*unrecognised|head\.csv, line 1"):
            ingest_dump(open_export(dump, SNMP_FORMAT), tmp_path / "fleet")

    def test_snmp_duplicate_column_rejected(self, tmp_path):
        dump = tmp_path / "dupe.csv"
        dump.write_text("timestamp,device,/x,/x\n")
        with pytest.raises(ValueError, match=r"dupe\.csv, line 1.*duplicate"):
            ingest_dump(dump, tmp_path / "fleet")

    def test_empty_dump_rejected(self, tmp_path):
        dump = tmp_path / "void.csv"
        dump.write_text("timestamp,device,/x\n")
        with pytest.raises(ValueError, match="no telemetry updates"):
            ingest_dump(dump, tmp_path / "fleet")


# ----------------------------------------------------------------------
class TestMinSamples:
    def test_sparse_pairs_are_skipped_and_recorded(self, tmp_path):
        dump = tmp_path / "sparse.jsonl"
        lines = [json.dumps({"timestamp": 30.0 * index, "device": "rich",
                             "path": "/x", "value": float(index)})
                 for index in range(20)]
        lines.append(json.dumps({"timestamp": 0.0, "device": "poor",
                                 "path": "/x", "value": 1.0}))
        dump.write_text("\n".join(lines) + "\n")
        ingested = ingest_dump(dump, tmp_path / "fleet")
        assert [pair.device.device_id for pair in ingested.pairs()] == ["rich"]
        summary = json.loads((tmp_path / "fleet" / "manifest.json").read_text())["ingest"]
        assert len(summary["pairs_skipped"]) == 1
        assert summary["pairs_skipped"][0]["device"] == "poor"

    def test_min_samples_knob_raises_the_bar(self, gnmi_dump, tmp_path):
        ingested = ingest_dump(gnmi_dump, tmp_path / "fleet", min_samples=30)
        summary = json.loads((tmp_path / "fleet" / "manifest.json").read_text())["ingest"]
        # The 2-hour Temperature pairs only have 24 samples at 300 s.
        assert len(summary["pairs_skipped"]) == 3
        assert all(entry["metric"] == "Temperature"
                   for entry in summary["pairs_skipped"])
        assert "Temperature" not in ingested.metric_names()

    def test_all_pairs_skipped_is_an_error(self, tmp_path):
        dump = tmp_path / "thin.jsonl"
        dump.write_text('{"timestamp": 0.0, "device": "d", "path": "/x", "value": 1.0}\n')
        with pytest.raises(ValueError, match="min_samples"):
            ingest_dump(dump, tmp_path / "fleet")

    def test_min_samples_below_two_rejected(self, gnmi_dump, tmp_path):
        with pytest.raises(ValueError, match="min_samples must be >= 2"):
            ingest_dump(gnmi_dump, tmp_path / "fleet", min_samples=1)


# ----------------------------------------------------------------------
class TestIngestCLI:
    def test_export_dump_ingest_survey_pipeline(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        assert main(["export-dump", str(dump), "--pairs", "6", "--seed", "3",
                     "--duration-hours", "1"]) == 0
        assert main(["ingest", str(dump), str(tmp_path / "fleet"),
                     "--memory-budget", "64"]) == 0
        output = capsys.readouterr().out
        assert "Ingested 6 (metric, device) pairs" in output
        assert "spilled to scratch" in output
        assert main(["survey", "--from-dir", str(tmp_path / "fleet")]) == 0
        assert "Headline statistics" in capsys.readouterr().out

    def test_snmp_export_dump_round_trips(self, tmp_path, capsys):
        dump = tmp_path / "dump.csv"
        assert main(["export-dump", str(dump), "--format", "snmp-csv",
                     "--pairs", "6", "--seed", "3", "--duration-hours", "1"]) == 0
        assert main(["ingest", str(dump), str(tmp_path / "fleet")]) == 0
        assert "snmp-csv export" in capsys.readouterr().out

    def test_cli_reports_malformed_dump(self, tmp_path, capsys):
        dump = tmp_path / "bad.jsonl"
        dump.write_text('{"timestamp": 0.0, "device": "d"}\n')
        assert main(["ingest", str(dump), str(tmp_path / "fleet")]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "bad.jsonl" in err

    def test_cli_reports_used_directory(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        main(["export-dump", str(dump), "--pairs", "3", "--duration-hours", "1"])
        assert main(["ingest", str(dump), str(tmp_path / "fleet")]) == 0
        assert main(["ingest", str(dump), str(tmp_path / "fleet")]) == 1
        assert "already holds a measured fleet" in capsys.readouterr().err


class TestQuarantinedIngest:
    """``on_error="quarantine"`` drops exactly the malformed lines (whole
    SNMP rows), records them with provenance, and leaves every untouched
    update bit-identical to a clean ingest."""

    @pytest.fixture()
    def clean(self, gnmi_dump, tmp_path):
        return ingest_dump(gnmi_dump, tmp_path / "clean")

    def test_rejects_unknown_on_error(self, gnmi_dump, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            ingest_dump(gnmi_dump, tmp_path / "fleet", on_error="shrug")

    def test_rejects_non_empty_failure_sink(self, gnmi_dump, tmp_path):
        sink = MemoryRecordSink()
        sink.append(FailureRecordBlock.from_failures(
            [FailureRecord("", "", "parse", "ValueError", "x", "y:1")]))
        with pytest.raises(ValueError, match="failure_sink already holds"):
            ingest_dump(gnmi_dump, tmp_path / "fleet", on_error="quarantine",
                        failure_sink=sink)

    def test_gnmi_quarantine_accounts_for_every_mangled_line(
            self, gnmi_dump, tmp_path):
        plan = FaultPlan(malformed_line_every=41)
        dirty = tmp_path / "dirty.jsonl"
        mangled = corrupt_dump_lines(gnmi_dump, dirty, plan)
        assert mangled
        sink = MemoryRecordSink()
        ingest_dump(dirty, tmp_path / "fleet", on_error="quarantine",
                    failure_sink=sink)
        failures = [f for block in sink.blocks() for f in block.failures()]
        assert [int(f.provenance.rsplit(":", 1)[1]) for f in failures] == mangled
        assert all(f.stage == "parse" for f in failures)
        assert all(f.provenance.startswith(str(dirty)) for f in failures)
        manifest = json.loads((tmp_path / "fleet" / "manifest.json").read_text())
        assert manifest["ingest"]["quarantined_lines"] == mangled

    def test_gnmi_surviving_updates_bit_identical(self, gnmi_dump, clean,
                                                  tmp_path):
        """Corrupting lines of pairs we then ignore must leave every other
        pair's trace bit-identical to the clean ingest."""
        lines = gnmi_dump.read_text().splitlines(keepends=True)
        victim = json.loads(lines[0])["device"]
        dirty = tmp_path / "dirty.jsonl"
        with dirty.open("w") as handle:
            for line in lines:
                if json.loads(line)["device"] == victim:
                    handle.write("!corrupted! " + line[: len(line) // 2] + "\n")
                else:
                    handle.write(line)
        # Line 1 may belong to the victim: name the format explicitly.
        ingested = ingest_dump(open_export(dirty, GNMI_FORMAT), tmp_path / "fleet",
                               on_error="quarantine")
        for pair in ingested.pairs():
            if pair.key[1] == victim:
                continue
            twin = next(p for p in clean.pairs() if p.key == pair.key)
            assert np.array_equal(ingested.load(pair).values,
                                  clean.load(twin).values)

    def test_snmp_rows_quarantine_atomically(self, snmp_dump, tmp_path):
        """A bad cell poisons its whole row: no partial-row updates leak."""
        lines = snmp_dump.read_text().splitlines(keepends=True)
        cells = lines[2].rstrip("\r\n").split(",")
        column = next(index for index, cell in enumerate(cells[2:], start=2)
                      if cell)
        cells[column] = "not-a-number"
        lines[2] = ",".join(cells) + "\n"
        dump = tmp_path / "bad.csv"
        dump.write_text("".join(lines))
        sink = MemoryRecordSink()
        ingested = ingest_dump(dump, tmp_path / "fleet", on_error="quarantine",
                               failure_sink=sink)
        assert sink.rows == 1
        failure = next(f for block in sink.blocks() for f in block.failures())
        assert failure.provenance == f"{dump}:3"
        # The row's device lost exactly one poll in every polled metric.
        clean = ingest_dump(snmp_dump, tmp_path / "clean")
        device = cells[1]
        for pair in ingested.pairs():
            twin = next(p for p in clean.pairs() if p.key == pair.key)
            lost = len(clean.load(twin)) - len(ingested.load(pair))
            assert lost == (1 if pair.key[1] == device else 0) or lost == 0

    def test_snmp_header_errors_always_raise(self, tmp_path):
        dump = tmp_path / "head.csv"
        dump.write_text("time,node,oid\n0,server,1\n")
        with pytest.raises(ValueError):
            ingest_dump(dump, tmp_path / "fleet", on_error="quarantine")

    def test_raise_mode_unchanged_by_default(self, gnmi_dump, tmp_path):
        plan = FaultPlan(malformed_line_every=41)
        dirty = tmp_path / "dirty.jsonl"
        corrupt_dump_lines(gnmi_dump, dirty, plan)
        with pytest.raises(ValueError, match=r"dirty\.jsonl, line"):
            ingest_dump(dirty, tmp_path / "fleet")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_out_of_range_integer_is_quarantined(self, gnmi_dump, tmp_path, workers):
        # float(int) of a 401-digit literal overflows; the line must be
        # quarantined like any other malformed line, not abort the run.
        dump = with_huge_integer_timestamp(gnmi_dump, tmp_path)
        sink = MemoryRecordSink()
        ingest_dump(dump, tmp_path / "fleet", on_error="quarantine",
                    failure_sink=sink, workers=workers)
        failures = [f for block in sink.blocks() for f in block.failures()]
        assert [f.provenance for f in failures] == [f"{dump}:6"]
        assert "line 6: 'timestamp' must be finite" in failures[0].message

    @pytest.mark.parametrize("workers", [1, 2])
    def test_out_of_range_integer_names_file_and_line(self, gnmi_dump, tmp_path,
                                                      workers):
        dump = with_huge_integer_timestamp(gnmi_dump, tmp_path)
        with pytest.raises(ValueError, match=r"huge\.jsonl, line 6: 'timestamp'"):
            ingest_dump(dump, tmp_path / "fleet", workers=workers)

    def test_integer_past_the_digit_limit_names_file_and_line(self, gnmi_dump,
                                                              tmp_path):
        # json.loads raises a plain ValueError (not JSONDecodeError) for an
        # integer literal past int()'s digit limit.
        dump = with_huge_integer_timestamp(gnmi_dump, tmp_path, digits=5000)
        with pytest.raises(ValueError, match=r"huge\.jsonl, line 6: malformed gNMI"):
            ingest_dump(dump, tmp_path / "fleet")


class TestAtomicIngest:
    """Ingest stages into ``<dest>.partial`` and publishes by rename: a
    failed ingest leaves no destination and no staging litter."""

    def test_success_leaves_no_staging_directory(self, gnmi_dump, tmp_path):
        destination = tmp_path / "fleet"
        ingest_dump(gnmi_dump, destination)
        assert destination.is_dir()
        assert not (tmp_path / "fleet.partial").exists()

    def test_failure_leaves_no_destination_or_staging(self, gnmi_dump, tmp_path):
        lines = gnmi_dump.read_text()
        dump = tmp_path / "dirty.jsonl"
        dump.write_text(lines + "!corrupted! not json\n")
        destination = tmp_path / "fleet"
        with pytest.raises(ValueError):
            ingest_dump(dump, destination)
        assert not destination.exists()
        assert not (tmp_path / "fleet.partial").exists()

    def test_stale_staging_from_a_crashed_run_is_replaced(self, gnmi_dump,
                                                          tmp_path):
        stale = tmp_path / "fleet.partial"
        (stale / "traces").mkdir(parents=True)
        (stale / "traces" / "junk.rcb").write_bytes(b"junk")
        ingested = ingest_dump(gnmi_dump, tmp_path / "fleet")
        assert not stale.exists()
        assert not any(p.name == "junk.rcb"
                       for p in (tmp_path / "fleet" / "traces").iterdir())
        run_survey(ingested)  # publishes a coherent fleet

    def test_published_fleet_identical_to_prior_behaviour(self, gnmi_dump,
                                                          tmp_path):
        a = ingest_dump(gnmi_dump, tmp_path / "a")
        b = ingest_dump(gnmi_dump, tmp_path / "b")
        assert_same_fleet(a, b)


def with_huge_integer_timestamp(dump: Path, tmp_path: Path, digits: int = 401) -> Path:
    lines = dump.read_text().splitlines(keepends=True)
    lines[5] = ('{"timestamp": 1' + "0" * (digits - 1)
                + ', "device": "d", "path": "/x", "value": 1.0}\n')
    huge = tmp_path / "huge.jsonl"
    huge.write_text("".join(lines))
    return huge


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def large_gnmi_lines(tmp_path_factory) -> list[str]:
    """A canonical gNMI dump spanning several blocks, as ``\\n``-ended lines."""
    fleet = FleetDataset(DatasetConfig(pair_count=30, seed=5, trace_duration=14400.0,
                                       metrics=INGEST_METRICS))
    dump = fleet.export_gnmi_dump(tmp_path_factory.mktemp("dumps") / "large.jsonl")
    assert dump.stat().st_size > 2 * BLOCK_BYTES
    return dump.read_text().splitlines(keepends=True)


def directory_bytes(directory: Path) -> dict[str, bytes]:
    """Every published file of a fleet directory, keyed by relative path."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def per_line_failures(dump: Path) -> list[tuple[str, str, str]]:
    """Quarantine records of a plain ``_parse_gnmi_line`` pass over every line."""
    failures = []
    text = dump.read_bytes().decode("utf-8")
    for line_number, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            try:
                _parse_gnmi_line(line.strip(), dump, line_number)
            except ValueError as error:
                failures.append((type(error).__name__, str(error),
                                 f"{dump}:{line_number}"))
    return failures


def assert_exact_against_per_line(dump: Path, tmp_path: Path, monkeypatch,
                                  ) -> list[tuple[str, str, str]]:
    """Block-reader ingest == per-line reference ingest; returns the failures.

    The reference run disables the fast path, so every line goes through
    ``_parse_gnmi_line``; the block run must take the fast path at least
    once, or the comparison would prove nothing.
    """
    fast_path = ingest_module._parse_canonical_gnmi_block
    accepted: list[bool] = []

    def spy(text: str, lines: int):
        block = fast_path(text, lines)
        accepted.append(block is not None)
        return block

    monkeypatch.setattr(ingest_module, "_parse_canonical_gnmi_block", spy)
    sink = MemoryRecordSink()
    ingest_dump(open_export(dump, GNMI_FORMAT), tmp_path / "blocks", on_error="quarantine",
                failure_sink=sink)
    failures = [(f.error_type, f.message, f.provenance)
                for block in sink.blocks() for f in block.failures()]
    assert failures == per_line_failures(dump)
    assert any(accepted), "no block took the fast path"
    if failures:  # raise mode reports the first one, verbatim
        with pytest.raises(ValueError) as raised:
            ingest_dump(open_export(dump, GNMI_FORMAT), tmp_path / "raised")
        assert str(raised.value) == failures[0][1]
    monkeypatch.setattr(ingest_module, "_parse_canonical_gnmi_block",
                        lambda text, lines: None)
    ingest_dump(open_export(dump, GNMI_FORMAT), tmp_path / "per-line",
                on_error="quarantine")
    assert directory_bytes(tmp_path / "blocks") == directory_bytes(tmp_path / "per-line")
    return failures


def canonical(timestamp: str, device: str, path: str, value: str) -> str:
    return (f'{{"timestamp": {timestamp}, "device": "{device}", "path": "{path}", '
            f'"value": {value}}}')


class TestBlockReaderExactness:
    """The gNMI fast path publishes exactly what per-line parsing does."""

    def test_malformed_first_last_and_block_straddling_lines(
            self, large_gnmi_lines, tmp_path, monkeypatch):
        lines = list(large_gnmi_lines)
        ends = np.cumsum([len(line.encode()) for line in lines])
        # The line holding byte BLOCK_BYTES straddles the first block cut.
        straddling = int(np.searchsorted(ends, BLOCK_BYTES, side="right"))
        assert ends[straddling - 1] < BLOCK_BYTES < ends[straddling]
        lines[0] = "not json\n"
        lines[straddling] = lines[straddling].replace('"value": ', '"value": "')
        lines[straddling] = lines[straddling].replace("}\n", '"}\n')
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # truncated, no newline
        dump = tmp_path / "dirty.jsonl"
        dump.write_text("".join(lines))
        failures = assert_exact_against_per_line(dump, tmp_path, monkeypatch)
        assert [failure[2] for failure in failures] == [
            f"{dump}:1", f"{dump}:{straddling + 1}", f"{dump}:{len(lines)}"]

    def test_joined_json_counterexample_is_rejected_line_by_line(
            self, large_gnmi_lines, tmp_path, monkeypatch):
        # Each line alone is malformed, yet joined into one JSON array the
        # three parse into exactly three valid update objects.
        trio = [canonical("0.0", "d", "/x", "1.0")[:-1] + ', "x": [{}',
                "{}]}",
                canonical("60.0", "d", "/x", "2.0") + ", "
                + canonical("120.0", "d", "/x", "3.0")]
        joined = json.loads("[" + ",".join(trio) + "]")
        assert len(joined) == 3 and all("value" in update for update in joined)
        lines = list(large_gnmi_lines)
        lines[10:10] = [line + "\n" for line in trio]
        dump = tmp_path / "joined.jsonl"
        dump.write_text("".join(lines))
        failures = assert_exact_against_per_line(dump, tmp_path, monkeypatch)
        assert [failure[2] for failure in failures] == [
            f"{dump}:11", f"{dump}:12", f"{dump}:13"]

    def test_raw_line_separators_inside_device_names(
            self, large_gnmi_lines, tmp_path, monkeypatch):
        # U+2028 and U+0085 are legal raw inside JSON strings (and
        # str.splitlines() would break on them); \x0c is a control
        # character json rejects.  Stripping maps " edge\u0085" to
        # "edge", merging it with the plain "edge" device.
        extra = []
        for index in range(12):
            for device in ("edge box", "edge\u0085box", " edge\u0085",
                           "edge"):
                extra.append(canonical(f"{60.0 * index}", device, "/sep",
                                       f"{index}.5") + "\n")
        lines = extra + list(large_gnmi_lines)
        lines.append(canonical("0.0", "form\x0cfeed", "/sep", "1.0") + "\n")
        dump = tmp_path / "separators.jsonl"
        dump.write_bytes("".join(lines).encode("utf-8"))
        failures = assert_exact_against_per_line(dump, tmp_path, monkeypatch)
        assert [failure[2] for failure in failures] == [f"{dump}:{len(lines)}"]
        devices = {pair.device.device_id
                   for pair in MeasuredFleetDataset(tmp_path / "blocks").pairs()
                   if pair.metric_name == "/sep"}
        assert devices == {"edge box", "edge\u0085box", "edge"}

    def test_number_literals_line_endings_and_blank_lines(
            self, large_gnmi_lines, tmp_path, monkeypatch):
        # First block: -0 (json's int 0, so +0.0) against -0.0, exponent
        # timestamps, a 30-digit integer and CRLF endings -- all on the
        # fast path.  Last block: NaN/Infinity tokens (rejected as before)
        # and blank or whitespace-only lines (the per-line fallback).
        head = []
        for index in range(8):
            value = "-0" if index % 2 == 0 else "-0.0"
            head.append(canonical(f"{index + 1}E2", "zero", "/z", value) + "\r\n")
            head.append(canonical(f"{index * 100}", "wide", "/z",
                                  "123456789012345678901234567890") + "\n")
        tail = ["\n", "   \t\n",
                canonical("NaN", "d", "/x", "1.0") + "\n",
                "\r\n",
                canonical("0.0", "d", "/x", "Infinity") + "\n",
                canonical("60.0", "d", "/x", "-Infinity") + "\n"]
        lines = head + list(large_gnmi_lines) + tail
        dump = tmp_path / "literals.jsonl"
        dump.write_text("".join(lines))
        failures = assert_exact_against_per_line(dump, tmp_path, monkeypatch)
        total = len(lines)
        assert [failure[2] for failure in failures] == [
            f"{dump}:{total - 3}", f"{dump}:{total - 1}", f"{dump}:{total}"]
        fleet = MeasuredFleetDataset(tmp_path / "blocks")
        zero = next(pair for pair in fleet.pairs() if pair.key == ("/z", "zero"))
        trace = fleet.load(zero)
        assert trace.start_time == 100.0 and trace.interval == 100.0
        assert list(np.signbit(trace.values)) == [False, True] * 4


def per_line_block(text: str) -> dict:
    """``text`` parsed line by line with ``_parse_gnmi_line``; raises on a bad line."""
    groups: dict = {}
    for line_number, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            update = _parse_gnmi_line(line.strip(), Path("block.jsonl"), line_number)
            times, values = groups.setdefault(update.key, ([], []))
            times.append(update.timestamp)
            values.append(update.value)
    return {key: (np.array(times, dtype=np.float64), np.array(values, dtype=np.float64))
            for key, (times, values) in groups.items()}


def base_lines() -> list[str]:
    """A small canonical block: three interleaved pairs, four polls each."""
    return [canonical(f"{60.0 * poll}", device, "/interfaces/interface/state/utilization",
                      f"{poll}.25") + "\n"
            for poll in range(4) for device in ("a", "b", "c")]


def mutate_field(field: str, literal: str) -> str:
    """Line 4 of the base block with its ``field`` number replaced by ``literal``."""
    parts = {"timestamp": "60.0", "device": "a",
             "path": "/interfaces/interface/state/utilization", "value": "1.25"}
    parts[field] = literal
    return canonical(parts["timestamp"], parts["device"], parts["path"],
                     parts["value"]) + "\n"


#: (mutation id, the mutated line 4, whether the fast path accepts its block).
SCAN_MUTATIONS = [
    *[(f"{field}-{name}", mutate_field(field, literal), accepted)
      for field in ("timestamp", "value")
      for name, literal, accepted in [
          ("leading-zero", "01", False), ("plus", "+1", False),
          ("bare-fraction", ".5", False), ("bare-point", "1.", False),
          ("minus-zero", "-0", True), ("exponent", "1E2", True),
          ("30-digit-integer", "123456789012345678901234567890", True),
          ("inner-space", "1 0", False), ("digit-underscore", "1_0", False),
          ("nan", "NaN", False), ("overflow", "1e400", False)]],
    ("backslash-in-name", mutate_field("device", "a\\\\b"), False),
    ("unicode-escape-in-name", mutate_field("device", "\\u0061"), False),
    ("control-byte-in-name", mutate_field("device", "a\x01b"), False),
    ("non-ascii-name", mutate_field("device", "d\u00e9vice-\u2028"), True),
    ("escaped-quote-in-name", mutate_field("path", 'a\\"b'), False),
    ("raw-quote-in-name", mutate_field("device", 'a"b'), False),
    ("device-and-path-swapped",
     '{"timestamp": 60.0, "path": "/x", "device": "a", "value": 1.0}\n', False),
    ("blank-line", "\n", False),
    ("whitespace-name", mutate_field("device", "  "), False),
    ("crlf", mutate_field("value", "7.5").replace("\n", "\r\n"), True),
    ("number-group-across-newline",
     mutate_field("timestamp", "1\n20.0"), False),
    ("name-group-across-newline",
     mutate_field("device", "a\nb"), False),
]


class TestCanonicalScanDifferential:
    """Mutated canonical lines: the fast path equals the per-line parser or falls back."""

    @pytest.mark.parametrize("line, accepted",
                             [(line, accepted) for _, line, accepted in SCAN_MUTATIONS],
                             ids=[name for name, _, _ in SCAN_MUTATIONS])
    @pytest.mark.parametrize("trailing_newline", [True, False])
    def test_accepted_blocks_equal_the_per_line_parser(self, line, accepted,
                                                       trailing_newline):
        lines = base_lines()
        lines[4] = line
        text = "".join(lines)
        if not trailing_newline:
            text = text.rstrip("\n")
        lines_in_block = text.count("\n") + int(not text.endswith("\n"))
        block = ingest_module._parse_canonical_gnmi_block(text, lines_in_block)
        try:
            reference = per_line_block(text)
        except ValueError:
            reference = None
        assert (block is not None) == accepted
        if block is None:
            return
        assert reference is not None, "accepted a block the per-line parser rejects"
        assert list(block) == list(reference)
        for key, (times, values) in reference.items():
            assert block[key][0].tobytes() == times.tobytes()
            assert block[key][1].tobytes() == values.tobytes()
