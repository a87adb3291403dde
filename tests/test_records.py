"""Shared column-spec serialiser tests, parametrised over every block type.

Every columnar block class -- the Nyquist survey's
:class:`~repro.analysis.survey.RecordBlock`, the policy survey's
:class:`~repro.pipeline.evaluation.PolicyRecordBlock`, quarantine
failures, measured traces (:class:`~repro.telemetry.measured.TraceBlock`)
and sharded-ingest parts (:class:`~repro.telemetry.shard.ShardPartBlock`)
-- serialises through the one schema-driven implementation in
:mod:`repro.records` (:class:`~repro.records.ColumnarBlock`), with the
schema derived from the block's dataclass fields.  These tests pin the
shared contract once for all block types: lossless rcb round trips
(floats bit for bit, NaNs included), zero-row blocks keeping their
block-level scalars, spill directories re-opening as the block type
their headers name, the sinks' append order and one-block-type rule,
and loud ``ValueError``s naming the offending file on corruption.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.survey import RecordBlock
from repro.pipeline.evaluation import PolicyRecordBlock
from repro.records import (RCB_MAGIC, ColumnarBlock, FailureRecord, FailureRecordBlock,
                           MemoryRecordSink, SpillingRecordSink, column, load_rcb_any,
                           read_rcb_header, register_block_type, registered_block_types)
from repro.records.rcb import block_type_of
from repro.signals.timeseries import TimeSeries
from repro.telemetry.measured import TraceBlock
from repro.telemetry.shard import ShardPartBlock

# ----------------------------------------------------------------------
# One sample block per registered type (NaNs included to pin bit-exact
# float round trips; device ids of different lengths to pin str dtype).
# ----------------------------------------------------------------------


def make_record_block(rows: int = 3) -> RecordBlock:
    return RecordBlock(
        metric_name="Temperature",
        device_ids=np.array([f"tor-{i:04d}" for i in range(rows)], dtype=np.str_),
        current_rate=np.full(rows, 1.0 / 300.0),
        nyquist_rate=np.linspace(1e-4, 2e-3, rows),
        reduction_ratio=np.array([np.nan] + [1.7 ** i for i in range(1, rows)]),
        category=np.arange(rows) % 3,
        reliable=np.arange(rows) % 2 == 0,
        true_nyquist_rate=np.full(rows, np.nan),
        trace_duration=np.full(rows, 86400.0),
    )


def make_policy_block(rows: int = 3) -> PolicyRecordBlock:
    return PolicyRecordBlock(
        metric_name="Link util",
        policy_name="nyquist-static",
        device_ids=np.array([f"leaf-{i}" for i in range(rows)], dtype=np.str_),
        samples=np.arange(rows) * 7 + 2,
        mean_rate_hz=np.linspace(0.01, 0.5, rows),
        nrmse=np.array([0.01] * (rows - 1) + [np.nan]),
        max_abs_error=np.linspace(0.0, 2.0, rows),
        hops=np.arange(rows) + 1,
        collection_cpu_us=np.linspace(1.0, 9.0, rows),
        transmission=np.linspace(10.0, 90.0, rows),
        storage_bytes=np.linspace(8.0, 64.0, rows),
        analysis=np.zeros(rows),
        detected=np.array([-1, 0, 1][:rows]),
        detection_latency=np.array([np.nan, np.nan, 42.5][:rows]),
    )


def make_failure_block(rows: int = 3) -> FailureRecordBlock:
    return FailureRecordBlock.from_failures([
        FailureRecord(metric_name="Link util", device_id=f"tor-{i:04d}",
                      stage=("trace", "estimate", "parse")[i % 3],
                      error_type="ValueError",
                      message=f"corrupt or truncated trace file #{i}",
                      provenance=f"Link util[{i}] traces/{i}.rcb")
        for i in range(rows)])


def make_multiline_failure_block() -> FailureRecordBlock:
    """Two failures, one whose message spans three lines."""
    return FailureRecordBlock.from_failures([
        FailureRecord(metric_name="Link util", device_id=f"tor-{i:04d}", stage="trace",
                      error_type="ValueError", message=message,
                      provenance=f"Link util[{i}] traces/{i}.rcb")
        for i, message in enumerate(["line one\nline two\n# three", "one line"])])


def make_trace_block(rows: int = 3) -> TraceBlock:
    values = np.array([np.nan] + [0.1 * i for i in range(1, rows)])
    return TraceBlock.from_trace(TimeSeries(values, 300.0, start_time=-1.5))


def make_shard_part_block(rows: int = 3) -> ShardPartBlock:
    return ShardPartBlock(pairs=json.dumps([["Temperature", "tor-0"], ["Link util", "tor-1"]]),
                          key=np.arange(rows) % 2, t=np.linspace(0.0, 60.0, rows),
                          v=np.array([np.nan] + [2.5 * i for i in range(1, rows)]))


BLOCK_FACTORIES = {RecordBlock: make_record_block,
                   PolicyRecordBlock: make_policy_block,
                   FailureRecordBlock: make_failure_block,
                   TraceBlock: make_trace_block,
                   ShardPartBlock: make_shard_part_block}

#: What a spill directory must re-open losslessly: every block type, plus
#: a failure message spanning lines.
SPILL_FACTORIES = {**{cls.__name__: factory for cls, factory in BLOCK_FACTORIES.items()},
                   "FailureRecordBlock-multiline": make_multiline_failure_block}


def assert_blocks_equal(a, b) -> None:
    assert type(a) is type(b)
    schema = type(a)._SCHEMA
    for spec in schema.scalars:
        assert getattr(a, spec.name) == getattr(b, spec.name)
    for spec in schema.columns:
        left, right = getattr(a, spec.name), getattr(b, spec.name)
        assert left.dtype.kind == right.dtype.kind
        if left.dtype.kind == "f":
            assert np.array_equal(left, right, equal_nan=True)
        else:
            assert np.array_equal(left, right)


@pytest.fixture(params=list(BLOCK_FACTORIES), ids=lambda cls: cls.__name__)
def block(request):
    return BLOCK_FACTORIES[request.param]()


@pytest.fixture(params=list(SPILL_FACTORIES))
def spill_block(request):
    return SPILL_FACTORIES[request.param]()


@pytest.fixture(params=list(BLOCK_FACTORIES), ids=lambda cls: cls.__name__)
def empty_block(request):
    factory = BLOCK_FACTORIES[request.param]
    full = factory(2)
    schema = type(full)._SCHEMA
    fields = {spec.name: getattr(full, spec.name) for spec in schema.scalars}
    fields.update({spec.name: getattr(full, spec.name)[:0] for spec in schema.columns})
    return type(full)(**fields)


# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_round_trip_is_lossless(self, block, tmp_path):
        path = tmp_path / "block.rcb"
        block.save_rcb(path)
        assert_blocks_equal(block, type(block).load_rcb(path))

    def test_zero_row_block_keeps_scalars(self, empty_block, tmp_path):
        path = tmp_path / "empty.rcb"
        empty_block.save_rcb(path)
        loaded = type(empty_block).load_rcb(path)
        assert len(loaded) == 0
        assert_blocks_equal(empty_block, loaded)

    def test_saving_twice_writes_identical_bytes(self, block, tmp_path):
        block.save_rcb(tmp_path / "first.rcb")
        block.save_rcb(tmp_path / "second.rcb")
        assert ((tmp_path / "first.rcb").read_bytes()
                == (tmp_path / "second.rcb").read_bytes())


class TestZeroCopyLoad:
    """An rcb load is one read: every column is a read-only view of one buffer."""

    def test_every_registered_type_is_covered(self):
        assert set(registered_block_types()) <= set(BLOCK_FACTORIES)

    @pytest.mark.parametrize("load", ["load_rcb", "load_rcb_any"])
    def test_columns_are_read_only_views_of_one_buffer(self, block, load, tmp_path):
        path = tmp_path / "block.rcb"
        block.save_rcb(path)
        if load == "load_rcb":
            loaded = type(block).load_rcb(path)
        else:
            loaded = load_rcb_any(path)
        bases = []
        for spec in type(block)._SCHEMA.columns:
            column = getattr(loaded, spec.name)
            assert len(column) > 0
            assert column.dtype.type is np.dtype(spec.dtype).type
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
            assert np.shares_memory(np.asarray(column, dtype=spec.dtype), column)
            bases.append(column.base)
        assert all(base is bases[0] for base in bases)


class TestCorruption:
    def test_truncated_rcb_raises_value_error_naming_path(self, block, tmp_path):
        path = tmp_path / "block.rcb"
        block.save_rcb(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match=str(path)):
            type(block).load_rcb(path)

    def test_rcb_truncated_inside_header_raises_value_error(self, block, tmp_path):
        path = tmp_path / "block.rcb"
        block.save_rcb(path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match=str(path)):
            type(block).load_rcb(path)

    def test_rcb_bad_magic_raises_value_error(self, block, tmp_path):
        path = tmp_path / "block.rcb"
        block.save_rcb(path)
        data = bytearray(path.read_bytes())
        assert data[:4] == RCB_MAGIC
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=str(path)):
            type(block).load_rcb(path)

    def test_rcb_garbled_header_json_raises_value_error(self, block, tmp_path):
        path = tmp_path / "block.rcb"
        block.save_rcb(path)
        data = bytearray(path.read_bytes())
        data[8] = 0xFF  # first header byte: no longer valid UTF-8 JSON
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=str(path)):
            type(block).load_rcb(path)

    def test_rcb_missing_member_raises_value_error(self, block, tmp_path):
        path = tmp_path / "block.rcb"
        block.save_rcb(path)
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[4:8])
        header = json.loads(data[8:8 + header_len])
        header["columns"] = header["columns"][1:]
        raw = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode("ascii")
        # Pad the shrunken header with whitespace (still valid JSON) so
        # the data region keeps its original offsets; only the member
        # entry is gone.
        raw = raw.ljust(header_len, b" ")
        path.write_bytes(data[:8] + raw + data[8 + header_len:])
        with pytest.raises(ValueError, match=str(path)):
            type(block).load_rcb(path)

    def test_implausible_header_length_raises(self, tmp_path):
        path = tmp_path / "block.rcb"
        make_record_block().save_rcb(path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="implausible header length") as error:
            RecordBlock.load_rcb(path)
        assert str(path) in str(error.value)

    def test_trailing_bytes_raise(self, tmp_path):
        path = tmp_path / "block.rcb"
        make_record_block().save_rcb(path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match=f"expected {size} bytes, found {size + 8}"):
            RecordBlock.load_rcb(path)

    @pytest.mark.parametrize("damage, reason", [
        (lambda header: header.update(format="rcb/0"), "unknown format tag"),
        (lambda header: header.pop("rows"), "header is missing 'rows'"),
        (lambda header: header.update(data_bytes=-1), "bad data size -1"),
        (lambda header: header.update(rows=-1), "bad row count -1"),
        (lambda header: header.update(rows=header["rows"] + 1), "payload is"),
        (lambda header: header["columns"][0].update(
            dtype=header["columns"][0]["dtype"].replace("<", ">")), "is big-endian"),
        (lambda header: header["columns"][-1].update(offset=header["data_bytes"]),
         "lies outside the data section"),
        (lambda header: header["columns"][0].pop("nbytes"), "bad column descriptor"),
        (lambda header: header["scalars"].clear(), "missing scalar 'metric_name'"),
        (lambda header: header["columns"][0].update(dtype=",f8"), "bad column descriptor"),
        (lambda header: header["columns"][0].pop("name"), "bad column descriptor"),
        (lambda header: header["columns"][1].update(dtype="<i8"), "stored as <i8, not as float"),
        (lambda header: header.update(columns=7), "'columns' must be a list"),
    ], ids=["format-tag", "missing-key", "data-size", "row-count", "payload-size",
            "big-endian", "outside-data", "column-descriptor", "missing-scalar",
            "dtype-syntax", "column-name", "column-kind", "columns-type"])
    def test_damaged_header_raises_naming_path_and_reason(self, damage, reason, tmp_path):
        path = tmp_path / "block.rcb"
        make_record_block().save_rcb(path)
        _rewrite_header(path, damage)
        with pytest.raises(ValueError, match=reason) as error:
            RecordBlock.load_rcb(path)
        assert str(path) in str(error.value)


def _rewrite_header(path, edit) -> None:
    """Apply ``edit`` to the JSON header of ``path``, re-framing the file
    so the data section again starts on the next 64-byte boundary."""
    data = path.read_bytes()
    (header_len,) = struct.unpack("<I", data[4:8])
    header = json.loads(data[8:8 + header_len])
    payload = data[-(-(8 + header_len) // 64) * 64:]
    edit(header)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    padding = b"\0" * (-(8 + len(raw)) % 64)
    path.write_bytes(RCB_MAGIC + struct.pack("<I", len(raw)) + raw + padding + payload)


class TestSniffing:
    def test_both_types_are_registered(self):
        registered = registered_block_types()
        assert RecordBlock in registered
        assert PolicyRecordBlock in registered

    def test_sniffing_tells_the_types_apart(self, spill_block, tmp_path):
        block = spill_block
        sink = SpillingRecordSink(tmp_path / "spool")
        sink.append(block)
        reopened = SpillingRecordSink(tmp_path / "spool")
        assert reopened.rows == len(block)
        loaded = list(reopened.blocks())
        assert len(loaded) == 1
        assert type(loaded[0]) is type(block)
        assert_blocks_equal(block, loaded[0])

    def test_reopen_reads_the_files(self, spill_block, tmp_path):
        """Re-opening a spill directory reads its files, and later appends
        continue the same file set."""
        block = spill_block
        SpillingRecordSink(tmp_path / "spool").append(block)
        reopened = SpillingRecordSink(tmp_path / "spool")
        assert reopened.rows == len(block)
        reopened.append(block)
        assert [path.name for path in reopened.files] == [
            "records-00000.rcb", "records-00001.rcb"]
        assert sorted(path.name for path in (tmp_path / "spool").iterdir()) == [
            path.name for path in reopened.files]
        again = SpillingRecordSink(tmp_path / "spool")
        assert again.rows == 2 * len(block)
        loaded = list(again.blocks())
        assert len(loaded) == 2
        for each in loaded:
            assert_blocks_equal(block, each)

    @pytest.mark.parametrize("retired", ["npz", "csv"])
    def test_retired_spill_format_is_refused(self, retired, tmp_path):
        """A directory holding npz or csv spill files raises, naming the
        directory, and is left untouched -- even next to rcb files."""
        directory = tmp_path / "spool"
        directory.mkdir()
        block = make_record_block()
        block.save_rcb(directory / "records-00000.rcb")
        leftover = directory / f"records-00001.{retired}"
        if retired == "npz":
            np.savez(leftover, device_ids=block.device_ids)
        else:
            leftover.write_text("metric_name,device_id\nTemperature,tor-0000\n")
        before = sorted(directory.iterdir())
        with pytest.raises(ValueError, match=f"{retired} spill is no longer read") as error:
            SpillingRecordSink(directory)
        assert str(directory) in str(error.value)
        assert sorted(directory.iterdir()) == before


class TestSinks:
    def test_memory_sink_streams_blocks_in_append_order(self):
        sink = MemoryRecordSink()
        blocks = [make_record_block(3), make_record_block(1)]
        for block in blocks:
            sink.append(block)
        assert sink.rows == 4
        assert list(sink.blocks()) == blocks

    def test_fresh_spill_directory_is_empty(self, tmp_path):
        sink = SpillingRecordSink(tmp_path / "spool")
        assert (tmp_path / "spool").is_dir()
        assert sink.rows == 0
        assert sink.files == []
        assert list(sink.blocks()) == []

    @pytest.mark.parametrize("reopen", [False, True], ids=["fresh", "reopened"])
    def test_spill_refuses_a_second_block_type(self, reopen, tmp_path):
        """A sink stores one block type; a foreign block raises and writes
        no file, whether the type came from an append or a file header."""
        sink = SpillingRecordSink(tmp_path / "spool")
        sink.append(make_record_block())
        if reopen:
            sink = SpillingRecordSink(tmp_path / "spool")
        before = sorted((tmp_path / "spool").iterdir())
        with pytest.raises(ValueError, match="stores RecordBlock blocks; "
                                             "cannot append a PolicyRecordBlock"):
            sink.append(make_policy_block())
        assert sorted((tmp_path / "spool").iterdir()) == before
        assert sink.rows == len(make_record_block())

    def test_appends_continue_after_the_highest_index(self, tmp_path):
        directory = tmp_path / "spool"
        directory.mkdir()
        make_record_block().save_rcb(directory / "records-00007.rcb")
        sink = SpillingRecordSink(directory)
        sink.append(make_record_block(1))
        assert [path.name for path in sink.files] == ["records-00007.rcb",
                                                      "records-00008.rcb"]
        assert sink.rows == 4


class TestBlockTypeOf:
    """The one header-to-class lookup behind ``load_rcb_any`` and the sink."""

    @staticmethod
    def _header(block, tmp_path) -> dict:
        path = tmp_path / "block.rcb"
        block.save_rcb(path)
        return read_rcb_header(path)

    def test_block_type_name_decides(self, block, tmp_path):
        header = self._header(block, tmp_path)
        assert header["block_type"] == type(block).__name__
        assert block_type_of(tmp_path / "block.rcb", header) is type(block)

    def test_unclaimed_header_raises_value_error_naming_path(self, tmp_path):
        """A file names its type once, in ``block_type``: an unknown name
        raises ``ValueError`` naming the file although its members match a
        registered type, on a direct load and on re-opening its spill
        directory."""
        path = tmp_path / "spool" / "records-00000.rcb"
        path.parent.mkdir()
        make_record_block().save_rcb(path)
        _rewrite_header(path, lambda header: header.update(block_type="RenamedBlock"))
        with pytest.raises(ValueError, match="does not match any registered") as error:
            block_type_of(path, read_rcb_header(path))
        assert str(path) in str(error.value) and "'RenamedBlock'" in str(error.value)
        with pytest.raises(ValueError, match=str(path)):
            load_rcb_any(path)
        with pytest.raises(ValueError, match=str(path)):
            list(SpillingRecordSink(path.parent).blocks())


class TestSchemaValidation:
    @pytest.mark.parametrize("cls", [cls for cls in BLOCK_FACTORIES
                                     if len(cls._SCHEMA.columns) > 1],
                             ids=lambda cls: cls.__name__)
    def test_mismatched_column_length_raises(self, cls):
        block = BLOCK_FACTORIES[cls]()
        schema = type(block)._SCHEMA
        fields = {spec.name: getattr(block, spec.name) for spec in schema.scalars}
        fields.update({spec.name: getattr(block, spec.name) for spec in schema.columns})
        last = schema.columns[-1].name
        fields[last] = fields[last][:-1]
        with pytest.raises(ValueError, match=last):
            type(block)(**fields)

    def test_schema_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown column kind"):
            column("complex")

    def test_schema_requires_a_column(self):
        @dataclass(frozen=True)
        class ScalarsOnly(ColumnarBlock):
            name: str

        with pytest.raises(ValueError, match="register_block_type.*no column"):
            register_block_type(ScalarsOnly)
        assert ScalarsOnly not in registered_block_types()


class TestRegistration:
    """Only registered dataclasses are block types."""

    def test_unregistered_block_fails_at_first_construction(self):
        @dataclass(frozen=True)
        class Unregistered(ColumnarBlock):
            values: np.ndarray = column("float")

        with pytest.raises(TypeError, match="register_block_type"):
            Unregistered(values=np.zeros(2))

    def test_subclass_of_a_registered_block_must_register_itself(self):
        @dataclass(frozen=True)
        class Derived(TraceBlock):
            pass

        block = make_trace_block()
        with pytest.raises(TypeError, match="register_block_type"):
            Derived(interval=block.interval, start_time=block.start_time,
                    crc32=block.crc32, values=block.values)

    def test_non_dataclass_block_fails_at_registration_and_construction(self):
        class NotADataclass(ColumnarBlock):
            pass

        with pytest.raises(TypeError, match="register_block_type"):
            register_block_type(NotADataclass)
        with pytest.raises(TypeError, match="register_block_type"):
            NotADataclass()
        assert NotADataclass not in registered_block_types()
