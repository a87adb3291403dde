"""Every ``.npz`` reader closes its file when numpy rejects a truncated archive.

``np.load(path)`` opens the file itself and leaves it open when the
archive turns out to be unreadable, so a long survey that trips over
damaged files leaks one descriptor per file (``-X dev`` reports them as
``unclosed file``).  Each reader opens the file itself and hands numpy the
handle.  Under ``error::ResourceWarning`` a leaked handle fails the test
once it is collected; each test still expects a ``ValueError`` that
names the damaged file.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.records import FailureRecord, SpillingRecordSink
from repro.records.blocks import FailureRecordBlock
from repro.telemetry import DatasetConfig, FleetDataset
from repro.telemetry.shard import _finish_shard, _ShardTask

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
                      error_type="ValueError", message="corrupt", provenance=f"{index}.npz")
        for index in range(3)])


def test_block_load_npz(tmp_path):
    path = tmp_path / "block.npz"
    make_block().save_npz(path)
    truncate(path)
    expect_value_error_naming(path, lambda: FailureRecordBlock.load_npz(path))


def test_spill_sink_row_count(tmp_path):
    sink = SpillingRecordSink(tmp_path / "spool")
    sink.append(make_block())
    path = next((tmp_path / "spool").glob("records-*.npz"))
    truncate(path)
    expect_value_error_naming(path, lambda: SpillingRecordSink(tmp_path / "spool"))


def test_spill_sink_block_type_sniff(tmp_path):
    SpillingRecordSink(tmp_path / "spool").append(make_block())
    reopened = SpillingRecordSink(tmp_path / "spool")
    path = next((tmp_path / "spool").glob("records-*.npz"))
    truncate(path)
    expect_value_error_naming(path, lambda: list(reopened.blocks()))


def test_shard_part(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    path = scratch / "part-r0000-s0000-c00000.npz"
    np.savez(path, metric=np.array(["m"]), device=np.array(["d"]), key=np.zeros(1),
             t=np.zeros(1), v=np.zeros(1))
    truncate(path)
    task = _ShardTask(shard_index=0, scratch_dir=str(scratch), out_dir=str(tmp_path / "out"),
                      memory_budget_samples=1024, min_samples=1, trace_format="npz")
    expect_value_error_naming(path, lambda: _finish_shard(task))


def test_measured_trace(tmp_path):
    fleet = FleetDataset(DatasetConfig(pair_count=14, seed=5, trace_duration=3600.0))
    measured = fleet.export(tmp_path / "fleet")
    pair = measured.pairs()[0]
    path = tmp_path / "fleet" / pair.file
    truncate(path)
    expect_value_error_naming(path, lambda: measured.load(pair))
