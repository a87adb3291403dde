"""Shared column-spec serialiser tests, parametrised over every block type.

Both columnar block classes -- the Nyquist survey's
:class:`~repro.analysis.survey.RecordBlock` and the policy survey's
:class:`~repro.pipeline.evaluation.PolicyRecordBlock` -- serialise through
the one schema-driven implementation in :mod:`repro.records`
(:class:`~repro.records.ColumnarBlock`).  These tests pin the shared
contract once for all block types: lossless rcb/csv round trips (floats
bit for bit, NaNs included), zero-row blocks keeping their block-level
scalars, spill-file sniffing that tells the types apart, legacy csv files
without the scalar comment lines, and loud ``ValueError``s naming the
offending file on corruption.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.survey import RecordBlock
from repro.pipeline.evaluation import PolicyRecordBlock
from repro.records import (RCB_MAGIC, BlockSchema, ColumnSpec, FailureRecord,
                           FailureRecordBlock, ScalarSpec, SpillingRecordSink,
                           load_rcb_any, read_rcb_header, registered_block_types)
from repro.records.rcb import block_type_of

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
                      provenance=f"Link util[{i}] traces/{i}.npz")
        for i in range(rows)])


def make_multiline_failure_block() -> FailureRecordBlock:
    """Two failures, one whose message csv must quote across three lines."""
    return FailureRecordBlock.from_failures([
        FailureRecord(metric_name="Link util", device_id=f"tor-{i:04d}", stage="trace",
                      error_type="ValueError", message=message,
                      provenance=f"Link util[{i}] traces/{i}.npz")
        for i, message in enumerate(["line one\nline two\n# three", "one line"])])


BLOCK_FACTORIES = {RecordBlock: make_record_block,
                   PolicyRecordBlock: make_policy_block,
                   FailureRecordBlock: make_failure_block}

#: What a spill directory must re-open losslessly: every block type, plus
#: a failure message spanning lines (one csv row over several lines).
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
    @pytest.mark.parametrize("fmt", ["csv", "rcb"])
    def test_round_trip_is_lossless(self, block, fmt, tmp_path):
        path = tmp_path / f"block.{fmt}"
        getattr(block, f"save_{fmt}")(path)
        loaded = getattr(type(block), f"load_{fmt}")(path)
        assert_blocks_equal(block, loaded)

    @pytest.mark.parametrize("fmt", ["csv", "rcb"])
    def test_zero_row_block_keeps_scalars(self, empty_block, fmt, tmp_path):
        path = tmp_path / f"empty.{fmt}"
        getattr(empty_block, f"save_{fmt}")(path)
        loaded = getattr(type(empty_block), f"load_{fmt}")(path)
        assert len(loaded) == 0
        assert_blocks_equal(empty_block, loaded)

    def test_legacy_csv_without_scalar_comments_loads(self, block, tmp_path):
        # Files written before the comment lines existed start straight at
        # the header; the scalars are then recovered from the data rows.
        path = tmp_path / "block.csv"
        block.save_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        stripped = [line for line in lines if not line.startswith("#")]
        legacy = tmp_path / "legacy.csv"
        legacy.write_text("".join(stripped))
        loaded = type(block).load_csv(legacy)
        assert_blocks_equal(block, loaded)

    def test_csv_is_the_documented_flat_layout(self, block, tmp_path):
        path = tmp_path / "block.csv"
        block.save_csv(path)
        lines = path.read_text().splitlines()
        schema = type(block)._SCHEMA
        comments = [line for line in lines if line.startswith("#")]
        assert comments == [f"{spec.comment_prefix}{getattr(block, spec.name)}"
                            for spec in schema.scalars]
        header = lines[len(comments)]
        assert header == ",".join(schema.csv_header)


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
        import json
        import struct
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

    def test_empty_csv_raises_value_error(self, block, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="missing CSV header"):
            type(block).load_csv(path)

    def test_wrong_csv_header_raises_value_error(self, block, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("what,is,this\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            type(block).load_csv(path)

    def test_truncated_csv_row_names_file_and_row(self, block, tmp_path):
        path = tmp_path / "block.csv"
        block.save_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[-1].split(",")
        lines[-1] = ",".join(cells[: len(cells) // 2])
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"data row {len(block)}"):
            type(block).load_csv(path)

    def test_garbage_csv_cell_names_file_and_row(self, block, tmp_path):
        schema = type(block)._SCHEMA
        float_columns = [index for index, spec in enumerate(schema.columns)
                         if spec.kind == "float"]
        if not float_columns:
            pytest.skip("all-string schema: every cell is a valid value")
        path = tmp_path / "block.csv"
        block.save_csv(path)
        text = path.read_text()
        # Corrupt the last float cell of the first data row.
        lines = text.splitlines(keepends=True)
        first_data = next(index for index, line in enumerate(lines)
                          if not line.startswith("#")) + 1
        cells = lines[first_data].rstrip("\r\n").split(",")
        cells[float_columns[-1]] = "not-a-number"
        lines[first_data] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="data row 1"):
            type(block).load_csv(path)


class TestSniffing:
    def test_both_types_are_registered(self):
        registered = registered_block_types()
        assert RecordBlock in registered
        assert PolicyRecordBlock in registered

    @pytest.mark.parametrize("fmt", ["csv", "rcb"])
    def test_sniffing_tells_the_types_apart(self, spill_block, fmt, tmp_path):
        block = spill_block
        sink = SpillingRecordSink(tmp_path / "spool", fmt=fmt)
        sink.append(block)
        reopened = SpillingRecordSink(tmp_path / "spool", fmt=fmt)
        assert reopened.rows == len(block)
        loaded = list(reopened.blocks())
        assert len(loaded) == 1
        assert type(loaded[0]) is type(block)
        assert_blocks_equal(block, loaded[0])
        # The other registered types must NOT claim this file.
        for other in registered_block_types():
            if other is type(block):
                continue
            if fmt == "rcb":
                assert not other.sniff_rcb(read_rcb_header(sink.files[0]))
            else:
                head = sink.files[0].read_text().splitlines()[:4]
                assert not other.sniff_csv(head)

    @pytest.mark.parametrize("fmt", ["csv", "rcb"])
    def test_reopen_without_fmt_reads_the_files(self, spill_block, fmt, tmp_path):
        """Re-opening a spill directory without naming its format reads its
        files, and later appends continue the same file set."""
        block = spill_block
        SpillingRecordSink(tmp_path / "spool", fmt=fmt).append(block)
        reopened = SpillingRecordSink(tmp_path / "spool")
        assert reopened.fmt == fmt
        assert reopened.rows == len(block)
        assert reopened.block_type is None
        reopened.append(block)
        assert [path.name for path in reopened.files] == [
            f"records-00000.{fmt}", f"records-00001.{fmt}"]
        assert sorted(path.name for path in (tmp_path / "spool").iterdir()) == [
            path.name for path in reopened.files]
        again = SpillingRecordSink(tmp_path / "spool")
        assert again.rows == 2 * len(block)
        loaded = list(again.blocks())
        assert len(loaded) == 2
        for each in loaded:
            assert_blocks_equal(block, each)

    @pytest.mark.parametrize("present, fmt, match", [
        (("rcb", "csv"), None, "mixes rcb and csv record files"),
        (("rcb",), "csv", "holds rcb record files; cannot spill csv"),
        (("npz",), None, "npz spill is no longer read"),
    ], ids=["mixed-suffixes", "fmt-disagrees", "leftover-npz"])
    def test_spill_directory_holds_one_format(self, present, fmt, match, tmp_path):
        """A sink refuses a directory it would leave holding two formats."""
        directory = tmp_path / "spool"
        directory.mkdir()
        block = make_record_block()
        for index, suffix in enumerate(present):
            path = directory / f"records-{index:05d}.{suffix}"
            if suffix == "npz":
                np.savez(path, device_ids=block.device_ids)
            else:
                getattr(block, f"save_{suffix}")(path)
        before = sorted(directory.iterdir())
        with pytest.raises(ValueError, match=match) as error:
            SpillingRecordSink(directory, fmt=fmt)
        assert str(directory) in str(error.value)
        assert sorted(directory.iterdir()) == before


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

    def test_renamed_class_falls_back_to_sniffing(self, block, tmp_path):
        header = self._header(block, tmp_path)
        header["block_type"] = "RenamedBlock"
        assert block_type_of(tmp_path / "block.rcb", header) is type(block)

    def test_unclaimed_header_raises_value_error_naming_path(self, tmp_path):
        header = self._header(make_record_block(), tmp_path)
        header["block_type"] = "RenamedBlock"
        header["columns"] = header["columns"][1:]
        path = tmp_path / "block.rcb"
        with pytest.raises(ValueError, match="does not match any registered") as error:
            block_type_of(path, header)
        assert str(path) in str(error.value)


class TestSchemaValidation:
    def test_mismatched_column_length_raises(self, block):
        schema = type(block)._SCHEMA
        fields = {spec.name: getattr(block, spec.name) for spec in schema.scalars}
        fields.update({spec.name: getattr(block, spec.name) for spec in schema.columns})
        last = schema.columns[-1].name
        fields[last] = fields[last][:-1]
        with pytest.raises(ValueError, match=last):
            type(block)(**fields)

    def test_schema_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown column kind"):
            ColumnSpec("x", "complex")

    def test_schema_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            BlockSchema(scalars=(ScalarSpec("x", "x"),),
                        columns=(ColumnSpec("x", "float"),))

    def test_schema_requires_a_column(self):
        with pytest.raises(ValueError, match="at least one column"):
            BlockSchema(scalars=(ScalarSpec("x", "x"),), columns=())
