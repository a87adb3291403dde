"""Sharded ingest determinism: any worker count, byte for byte.

The contract of :func:`repro.telemetry.ingest.ingest_dump` with
``workers=N`` is that N is *invisible in the output*: the published
fleet directory -- the manifest bytes and every trace file -- is
identical whether the dump was parsed serially or split across byte
ranges and hash-routed shards.  These tests exercise that property over
the adversarial stream shapes the serial importer already guarantees
order-independence for (shuffled, reversed, duplicated dumps, both wire
formats), plus the supporting machinery: byte-range planning, the
sha256 pair router, the amortised accumulator ``extend`` path, the
quarantine flow across shard boundaries, and the CLI flag.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.faults import FaultPlan, corrupt_dump_lines
from repro.records import MemoryRecordSink
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.ingest import GNMI_FORMAT, PairAccumulator, ingest_dump, open_export
from repro.telemetry.shard import ByteRange, plan_byte_ranges, shard_of_key

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


def directory_bytes(directory: Path) -> dict[str, bytes]:
    """Every published file of a fleet directory, keyed by relative path."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def assert_byte_identical(serial_dir: Path, sharded_dir: Path) -> None:
    serial = directory_bytes(serial_dir)
    sharded = directory_bytes(sharded_dir)
    assert sorted(serial) == sorted(sharded)
    for name, payload in serial.items():
        assert sharded[name] == payload, f"{name} differs from the serial ingest"


# ----------------------------------------------------------------------
class TestShardOfKey:
    def test_route_is_stable_across_calls_and_processes(self):
        # sha256 of the key bytes, not hash(): the route must not move
        # with PYTHONHASHSEED.  Pin one known value as a regression anchor.
        key = ("Unicast bytes", "device-0007")
        first = shard_of_key(key, 8)
        assert all(shard_of_key(key, 8) == first for _ in range(5))
        assert shard_of_key(key, 1) == 0

    def test_all_shards_reachable_and_in_range(self):
        shards = 7
        seen = set()
        for index in range(200):
            route = shard_of_key(("ifInOctets", f"device-{index:04d}"), shards)
            assert 0 <= route < shards
            seen.add(route)
        assert seen == set(range(shards))

    def test_separator_prevents_key_aliasing(self):
        # ("ab", "c") and ("a", "bc") concatenate identically; the 0x1f
        # separator keeps their routes independent (distinct at a modulus
        # where a collision would be a 1-in-2^62 accident).
        assert shard_of_key(("ab", "c"), 2 ** 62) != \
            shard_of_key(("a", "bc"), 2 ** 62)

    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(ValueError):
            shard_of_key(("m", "d"), 0)


class TestPlanByteRanges:
    def test_ranges_tile_the_file_on_line_boundaries(self, gnmi_dump):
        size = gnmi_dump.stat().st_size
        raw = gnmi_dump.read_bytes()
        for parts in (1, 2, 3, 7):
            ranges = plan_byte_ranges(gnmi_dump, parts)
            assert ranges[0].start == 0
            assert ranges[-1].end == size
            for left, right in zip(ranges, ranges[1:]):
                assert left.end == right.start
                assert raw[left.end - 1:left.end] == b"\n"

    def test_first_line_numbers_are_absolute(self, gnmi_dump):
        ranges = plan_byte_ranges(gnmi_dump, 4)
        raw = gnmi_dump.read_bytes()
        for byte_range in ranges:
            lines_before = raw[:byte_range.start].count(b"\n")
            assert byte_range.first_line == lines_before + 1

    def test_data_start_offsets_lines_for_a_header(self, snmp_dump):
        raw = snmp_dump.read_bytes()
        header_end = raw.index(b"\n") + 1
        ranges = plan_byte_ranges(snmp_dump, 3, data_start=header_end,
                                  first_line=2)
        assert ranges[0] == ByteRange(header_end, ranges[0].end, 2)
        assert ranges[-1].end == snmp_dump.stat().st_size
        covered = sum(r.end - r.start for r in ranges)
        assert covered == snmp_dump.stat().st_size - header_end

    def test_more_parts_than_lines_collapses_cleanly(self, tmp_path):
        tiny = tmp_path / "tiny.jsonl"
        tiny.write_bytes(b"a\nb\n")
        ranges = plan_byte_ranges(tiny, 16)
        assert [(r.start, r.end) for r in ranges] == [(0, 2), (2, 4)]
        assert [r.first_line for r in ranges] == [1, 2]


# ----------------------------------------------------------------------
class TestShardedByteIdentity:
    """The headline property: workers is invisible in the published bytes."""

    def _mutations(self, dump: Path, tmp_path: Path,
                   keep_header: bool) -> list[Path]:
        lines = dump.read_text().splitlines(keepends=True)
        header, body = (lines[:1], lines[1:]) if keep_header else ([], lines)
        shuffled = list(body)
        random.Random(13).shuffle(shuffled)
        duplicated = body + body[:: 3]
        variants = {"clean": body, "shuffled": shuffled,
                    "reversed": list(reversed(body)), "duplicated": duplicated}
        paths = []
        for name, variant in variants.items():
            path = tmp_path / f"{name}{dump.suffix}"
            path.write_text("".join(header + variant))
            paths.append(path)
        return paths

    @pytest.mark.parametrize("dump_fixture,keep_header",
                             [("gnmi_dump", False), ("snmp_dump", True)])
    def test_sharded_output_identical_to_serial(self, request, dump_fixture,
                                                keep_header, tmp_path):
        dump = request.getfixturevalue(dump_fixture)
        for variant in self._mutations(dump, tmp_path, keep_header):
            serial_dir = tmp_path / f"{variant.stem}-w1"
            ingest_dump(variant, serial_dir, memory_budget_samples=256)
            for workers in (2, 4):
                sharded_dir = tmp_path / f"{variant.stem}-w{workers}"
                ingested = ingest_dump(variant, sharded_dir,
                                       memory_budget_samples=256,
                                       workers=workers)
                assert_byte_identical(serial_dir, sharded_dir)
                stats = ingested.ingest_stats
                assert stats is not None and stats.workers == workers
                assert len(stats.shards) == workers
                for shard in stats.shards:
                    assert (shard.peak_buffered_samples
                            <= shard.memory_budget_samples)

    def test_no_scratch_left_behind(self, gnmi_dump, tmp_path):
        ingest_dump(gnmi_dump, tmp_path / "fleet", workers=3)
        leftovers = [p for p in (tmp_path / "fleet").rglob("*")
                     if ".ingest-" in p.name]
        assert leftovers == []

    def test_workers_must_be_positive(self, gnmi_dump, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            ingest_dump(gnmi_dump, tmp_path / "fleet", workers=0)

    def test_more_workers_than_updates(self, tmp_path):
        # Degenerate split: fewer lines than workers must still publish
        # the same bytes as serial, not crash on empty ranges.
        fleet = FleetDataset(DatasetConfig(pair_count=2, seed=3,
                                           trace_duration=600.0,
                                           metrics=INGEST_METRICS[:1]))
        dump = fleet.export_gnmi_dump(tmp_path / "small.jsonl")
        ingest_dump(dump, tmp_path / "serial")
        ingest_dump(dump, tmp_path / "wide", workers=8)
        assert_byte_identical(tmp_path / "serial", tmp_path / "wide")


class TestShardedQuarantine:
    def test_quarantined_lines_identical_across_worker_counts(
            self, gnmi_dump, tmp_path):
        plan = FaultPlan(malformed_line_every=41)
        dirty = tmp_path / "dirty.jsonl"
        mangled = corrupt_dump_lines(gnmi_dump, dirty, plan)
        assert mangled
        manifests = {}
        for workers in (1, 2, 4):
            sink = MemoryRecordSink()
            out_dir = tmp_path / f"fleet-w{workers}"
            ingest_dump(open_export(dirty, GNMI_FORMAT), out_dir, workers=workers,
                        on_error="quarantine", failure_sink=sink)
            failures = [f for block in sink.blocks() for f in block.failures()]
            # Quarantine provenance must name the absolute dump line no
            # matter which byte range the worker parsed.
            assert sorted(int(f.provenance.rsplit(":", 1)[1])
                          for f in failures) == mangled
            manifests[workers] = (out_dir / "manifest.json").read_bytes()
        assert manifests[2] == manifests[1]
        assert manifests[4] == manifests[1]
        summary = json.loads(manifests[1])["ingest"]
        assert summary["quarantined_lines"] == mangled

    def test_raise_mode_raises_value_error_from_any_shard(
            self, gnmi_dump, tmp_path):
        dirty = tmp_path / "dirty.jsonl"
        corrupt_dump_lines(gnmi_dump, dirty, FaultPlan(malformed_line_every=41))
        with pytest.raises(ValueError, match="dirty.jsonl"):
            ingest_dump(open_export(dirty, GNMI_FORMAT), tmp_path / "fleet", workers=3)
        assert not (tmp_path / "fleet").exists()

    @pytest.mark.parametrize("dump_fixture", ["gnmi_dump", "snmp_dump"])
    def test_lone_cr_dump_identical_across_worker_counts(self, request,
                                                         dump_fixture, tmp_path):
        # Only "\n" ends a line, in the serial reader and in every range
        # worker alike: a lone "\r" joins lines 80 and 81 into one
        # malformed line 80 at any worker count (CRLF endings, as in the
        # csv-written SNMP dump, stay fine).
        dump = request.getfixturevalue(dump_fixture)
        lines = dump.read_bytes().split(b"\n")
        lines[79] = lines[79].rstrip(b"\r") + b"\r" + lines.pop(80)
        lone_cr = tmp_path / f"lone-cr{dump.suffix}"
        lone_cr.write_bytes(b"\n".join(lines))
        failures = {}
        for workers in (1, 2, 4):
            sink = MemoryRecordSink()
            ingest_dump(lone_cr, tmp_path / f"fleet-w{workers}", workers=workers,
                        on_error="quarantine", failure_sink=sink)
            failures[workers] = [(f.message, f.provenance) for block in sink.blocks()
                                 for f in block.failures()]
            assert_byte_identical(tmp_path / "fleet-w1", tmp_path / f"fleet-w{workers}")
            with pytest.raises(ValueError, match=r"lone-cr\.\w+, line 80: "):
                ingest_dump(lone_cr, tmp_path / f"raise-w{workers}", workers=workers)
        assert [provenance for _, provenance in failures[1]] == [f"{lone_cr}:80"]
        assert failures[2] == failures[1] and failures[4] == failures[1]


# ----------------------------------------------------------------------
class TestAccumulatorExtend:
    def test_extend_matches_one_sample_loop_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        keys = [("m", f"d{i}") for i in range(4)]
        chunks = [(key, rng.uniform(0, 3600, size=size),
                   rng.normal(size=size))
                  for key, size in zip(keys * 3, rng.integers(1, 97, size=12))]
        looped = PairAccumulator(tmp_path / "loop", memory_budget_samples=64)
        batched = PairAccumulator(tmp_path / "batch", memory_budget_samples=64)
        for key, times, values in chunks:
            for timestamp, value in zip(times, values):
                looped.extend(key, [timestamp], [value])
            batched.extend(key, times, values)
        assert looped.peak_buffered_samples <= 64
        assert batched.peak_buffered_samples <= 64
        assert batched.total_samples == looped.total_samples
        assert batched.keys() == looped.keys()
        for key in batched.keys():
            left_t, left_v = looped.samples(key)
            right_t, right_v = batched.samples(key)
            assert np.array_equal(left_t, right_t)
            assert np.array_equal(left_v, right_v)
        looped.close()
        batched.close()

    def test_extend_rejects_mismatched_shapes(self, tmp_path):
        accumulator = PairAccumulator(tmp_path, memory_budget_samples=8)
        with pytest.raises(ValueError, match="equal-length"):
            accumulator.extend(("m", "d"), [1.0, 2.0], [1.0])
        accumulator.close()


# ----------------------------------------------------------------------
class TestShardedCLI:
    def test_workers_flag_round_trips(self, gnmi_dump, tmp_path, capsys):
        serial_dir = tmp_path / "serial"
        assert main(["ingest", str(gnmi_dump), str(serial_dir)]) == 0
        capsys.readouterr()
        sharded_dir = tmp_path / "sharded"
        assert main(["ingest", str(gnmi_dump), str(sharded_dir),
                     "--workers", "4"]) == 0
        output = capsys.readouterr().out
        assert "sharded ingest: 4 workers" in output
        assert "Ingested 9 (metric, device) pairs" in output
        assert_byte_identical(serial_dir, sharded_dir)

    def test_workers_flag_rejects_zero(self, gnmi_dump, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["ingest", str(gnmi_dump), str(tmp_path / "fleet"),
                  "--workers", "0"])
