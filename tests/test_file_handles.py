"""Every record and trace reader closes its file when it rejects a damaged one.

A reader that opens a file and raises before closing it leaks one
descriptor per damaged file, so a long survey that trips over bit rot
runs out of them (``-X dev`` reports ``unclosed file``).  The ``.rcb``
readers (record blocks, shard parts, measured traces) and the csv trace
reader open their files in a ``with`` block.  Under
``error::ResourceWarning`` a leaked handle fails the test once it is
collected; each test still expects a ``ValueError`` that names the
damaged file.
"""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from repro.records import FailureRecord, SpillingRecordSink
from repro.records.blocks import FailureRecordBlock
from repro.telemetry import DatasetConfig, FleetDataset
from repro.telemetry.shard import ShardPartBlock, _finish_shard, _ShardTask

# The leak surfaces as a ResourceWarning raised inside the file's
# finaliser, which pytest reports as an unraisable-exception warning.
pytestmark = [pytest.mark.filterwarnings("error::ResourceWarning"),
              pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")]


def truncate(path) -> None:
    path.write_bytes(path.read_bytes()[:40])


def expect_value_error_naming(path, call) -> None:
    """``call()`` raises ``ValueError`` naming ``path`` and leaves no handle behind."""
    with pytest.raises(ValueError, match=str(path)):
        call()
    gc.collect()  # a leaked handle is finalised here, raising ResourceWarning


def make_block() -> FailureRecordBlock:
    return FailureRecordBlock.from_failures([
        FailureRecord(metric_name="Temperature", device_id=f"dev-{index}", stage="trace",
                      error_type="ValueError", message="corrupt", provenance=f"{index}.rcb")
        for index in range(3)])


@pytest.fixture(scope="module")
def fleet():
    return FleetDataset(DatasetConfig(pair_count=14, seed=5, trace_duration=3600.0))


def test_block_load_rcb(tmp_path):
    path = tmp_path / "block.rcb"
    make_block().save_rcb(path)
    truncate(path)
    expect_value_error_naming(path, lambda: FailureRecordBlock.load_rcb(path))


def test_spill_sink_row_count(tmp_path):
    sink = SpillingRecordSink(tmp_path / "spool")
    sink.append(make_block())
    path = next((tmp_path / "spool").glob("records-*.rcb"))
    truncate(path)
    expect_value_error_naming(path, lambda: SpillingRecordSink(tmp_path / "spool"))


def test_spill_sink_block_type_sniff(tmp_path):
    SpillingRecordSink(tmp_path / "spool").append(make_block())
    reopened = SpillingRecordSink(tmp_path / "spool")
    path = next((tmp_path / "spool").glob("records-*.rcb"))
    truncate(path)
    expect_value_error_naming(path, lambda: list(reopened.blocks()))


def test_shard_part(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    path = scratch / "part-r0000-s0000-c00000.rcb"
    ShardPartBlock(pairs=json.dumps([["m", "d"]]), key=np.zeros(1), t=np.zeros(1),
                   v=np.zeros(1)).save_rcb(path)
    truncate(path)
    task = _ShardTask(shard_index=0, scratch_dir=str(scratch), out_dir=str(tmp_path / "out"),
                      memory_budget_samples=1024, min_samples=1, trace_format="rcb")
    expect_value_error_naming(path, lambda: _finish_shard(task))


@pytest.mark.parametrize("fmt", ["rcb", "csv"])
def test_measured_trace(fleet, tmp_path, fmt):
    measured = fleet.export(tmp_path / "fleet", fmt=fmt)
    pair = measured.pairs()[0]
    path = tmp_path / "fleet" / pair.file
    truncate(path)
    expect_value_error_naming(path, lambda: measured.load(pair))


def test_flipped_data_byte_in_rcb_trace(fleet, tmp_path):
    """Bit rot inside the samples fails the trace's crc32 check."""
    measured = fleet.export(tmp_path / "fleet")
    pair = measured.pairs()[0]
    path = tmp_path / "fleet" / pair.file
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01  # inside the last float64 sample
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="crc32") as error:
        measured.load(pair)
    assert str(path) in str(error.value)
    gc.collect()


def test_any_byte_flip_in_rcb_trace_raises_or_loads_the_same_trace(fleet, tmp_path):
    """Flipping any one byte of an exported trace either fails loudly, naming
    the file, or leaves the trace unchanged (header padding, the block's
    type name): it never loads a different trace."""
    measured = fleet.export(tmp_path / "fleet")
    pair = measured.pairs()[1]
    path = tmp_path / "fleet" / pair.file
    original = path.read_bytes()
    reference = measured.load(pair)
    unchanged = []
    for position in range(len(original)):
        for mask in (0x01, 0x20, 0xFF):
            data = bytearray(original)
            data[position] ^= mask
            path.write_bytes(bytes(data))
            try:
                trace = measured.load(pair)
            except ValueError as error:
                assert str(path) in str(error), (position, mask, error)
                continue
            assert np.array_equal(trace.values, reference.values), (position, mask)
            assert (trace.interval, trace.start_time) == \
                (reference.interval, reference.start_time), (position, mask)
            unchanged.append(position)
    gc.collect()
    data_start = len(original) - 8 * pair.length
    assert all(position < data_start for position in unchanged)
