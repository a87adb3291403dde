"""Sharded multi-process ingest: parallel dump parsing with a deterministic merge.

:func:`~repro.telemetry.ingest.ingest_dump` is single-threaded by
default; this module is the ``workers=N`` engine behind it.  The dump is
split into byte ranges aligned to record (line) boundaries, each range is
parsed in a worker process by the serial importer's own block reader
(:meth:`~repro.telemetry.ingest.TelemetryDump.updates` runs the same code
over the whole dump), and every parsed update is routed to one of ``N``
shards by a stable sha256 hash of its ``(metric, device)`` key --
``PYTHONHASHSEED``-independent, so shard ownership is a pure function of
the pair (one hash per pair per parsed block).  Each shard then runs its
own bounded
:class:`~repro.telemetry.ingest.PairAccumulator` + pair-finishing pass in
a worker process, and the parent merges the per-shard outputs into one
canonical-order fleet directory.

The merged output is **byte-identical to a ``workers=1`` ingest** for any
shard count and any update interleaving.  That falls out of two existing
invariants rather than any merge-time cleverness:

* pair ownership depends only on the pair key (the sha256 route), so the
  *set* of updates each pair accumulates is independent of how ranges
  split the file; and
* the serial importer's output already depends only on the update set --
  pairs are finished in canonical ``(metric, device)`` order, each pair's
  samples are ``(timestamp, value)``-sorted with first-wins dedupe, and
  rcb trace files are written byte-deterministically.

Data moves between the two phases through ``.rcb`` part files
(:class:`ShardPartBlock`) in the staging area, one per (range, shard,
flush) triple, so peak memory in every stage stays bounded by
``memory_budget_samples``: range parsers flush their routing buffers at
``budget / ranges`` buffered samples, and every shard accumulator gets a
``budget / shards`` spill budget.  Parts are scratch files that live
only for one ingest, like the accumulator's raw spill, so they carry no
checksum.

Both phases run on :func:`repro.faults.execution.run_batch_tasks`, so a
crashed worker rebuilds the pool and transient IO errors are retried with
deterministic backoff.  Malformed *lines* follow the serial semantics:
``on_error="raise"`` surfaces the first bad line as a ``ValueError``
naming the file and line; ``on_error="quarantine"`` records each bad line
with file:line provenance and ingests every healthy update.  A whole
*task* that fails after retries in quarantine mode is replayed once in
the parent (deterministic salvage); only a repeat failure aborts.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..faults.execution import BatchExecutionError, run_batch_tasks
from ..records import ColumnarBlock, FailureRecord, column, register_block_type
from .ingest import (SNMP_FORMAT, IngestStats, PairAccumulator, ShardIngestStats,
                     TelemetryDump, UpdateBlock, _finish_pairs, _iter_update_blocks,
                     _parse_failure_recorder, _read_snmp_header, _write_manifest)

__all__ = ["ByteRange", "ShardPartBlock", "plan_byte_ranges", "shard_of_key"]


def shard_of_key(key: tuple[str, str], shards: int) -> int:
    """The shard owning a ``(metric, device)`` pair: a stable sha256 route.

    Pure function of the key bytes (``PYTHONHASHSEED``-independent, unlike
    ``hash()``), so pair ownership is reproducible across processes, runs
    and machines.  The metric and device are joined with a 0x1f unit
    separator before hashing.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    payload = key[0].encode("utf-8") + b"\x1f" + key[1].encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") % shards


# ----------------------------------------------------------------------
# Planning: split the dump into line-aligned byte ranges
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ByteRange:
    """One line-aligned slice of a dump: ``[start, end)`` plus its first line number."""

    start: int
    end: int
    first_line: int


def plan_byte_ranges(path: Path | str, parts: int, data_start: int = 0,
                     first_line: int = 1) -> list[ByteRange]:
    """Split ``path`` into up to ``parts`` line-aligned byte ranges.

    Boundaries are the newlines nearest the equal-size split points, so
    every line belongs to exactly one range.  The single sequential scan
    also counts newlines, so each range knows the absolute line number of
    its first line (error messages and quarantine provenance from range
    workers match the serial reader exactly).  ``data_start`` /
    ``first_line`` skip an already-parsed header (the SNMP CSV case).

    The scan is cheap relative to parsing: it only finds ``\\n`` bytes,
    while the workers parse the same bytes into update blocks.
    """
    path = Path(path)
    if parts < 1:
        raise ValueError("parts must be >= 1")
    try:
        size = path.stat().st_size
    except OSError as error:
        raise ValueError(f"cannot read telemetry export {path}: {error}") from error
    if data_start > size:
        raise ValueError(f"telemetry export {path} is shorter ({size} bytes) "
                         f"than its header ({data_start} bytes)")
    if parts == 1 or size == data_start:
        return [ByteRange(data_start, size, first_line)]
    span = size - data_start
    targets = sorted({data_start + span * index // parts for index in range(1, parts)})
    boundaries: list[tuple[int, int]] = []
    with path.open("rb") as handle:
        handle.seek(data_start)
        offset = data_start
        line = first_line
        pending = 0
        while pending < len(targets):
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            search_from = 0
            while pending < len(targets):
                position = chunk.find(b"\n", search_from)
                if position < 0:
                    break
                newline_offset = offset + position
                line += 1
                while pending < len(targets) and newline_offset >= targets[pending]:
                    boundaries.append((newline_offset + 1, line))
                    pending += 1
                search_from = position + 1
            offset += len(chunk)
    ranges: list[ByteRange] = []
    start, start_line = data_start, first_line
    for boundary_offset, boundary_line in boundaries:
        if boundary_offset <= start or boundary_offset >= size:
            continue  # two targets shared a newline, or the file's last one
        ranges.append(ByteRange(start, boundary_offset, start_line))
        start, start_line = boundary_offset, boundary_line
    ranges.append(ByteRange(start, size, start_line))
    return ranges


# ----------------------------------------------------------------------
# Phase 1: parse byte ranges, route updates to per-shard part files
# ----------------------------------------------------------------------
@register_block_type
@dataclass(frozen=True)
class ShardPartBlock(ColumnarBlock):
    """One flush of one shard's samples from one byte range.

    ``pairs`` is the part's ``(metric, device)`` table as a JSON list of
    two-element lists; each sample row carries its index into that table
    in ``key`` and its timestamp and value in ``t`` and ``v``.
    """

    pairs: str
    key: np.ndarray = column("int")
    t: np.ndarray = column("float")
    v: np.ndarray = column("float")


class _ShardBuffer:
    """One shard's pending samples inside a range parser, key-table encoded."""

    __slots__ = ("ids", "keys", "times", "values")

    def __init__(self) -> None:
        self.ids: dict[tuple[str, str], int] = {}
        self.keys: list[np.ndarray] = []
        self.times: list[np.ndarray] = []
        self.values: list[np.ndarray] = []

    def append(self, key: tuple[str, str], times: np.ndarray,
               values: np.ndarray) -> None:
        index = self.ids.setdefault(key, len(self.ids))
        self.keys.append(np.full(times.size, index, dtype=np.int64))
        self.times.append(times)
        self.values.append(values)

    def block(self) -> ShardPartBlock:
        return ShardPartBlock(pairs=json.dumps([list(key) for key in self.ids]),
                              key=np.concatenate(self.keys),
                              t=np.concatenate(self.times),
                              v=np.concatenate(self.values))


class _ShardPartWriter:
    """Routes parsed update blocks to shards and flushes them as ``.rcb`` part files.

    Each block group is routed with one ``shard_of_key`` hash.  A part
    file is one :class:`ShardPartBlock`: one flush of one shard's samples
    from one range.  At most ``flush_budget`` samples are buffered across
    all shards, so phase-1 memory is bounded (beyond the block being
    routed) no matter how large the range is.
    """

    def __init__(self, scratch_dir: Path, range_index: int, shards: int,
                 flush_budget: int) -> None:
        self.scratch_dir = scratch_dir
        self.range_index = range_index
        self.shards = shards
        self.flush_budget = max(2, flush_budget)
        self.total = 0
        self._buffered = 0
        self._chunks = [0] * shards
        self._buffers = [_ShardBuffer() for _ in range(shards)]

    def add_block(self, block: UpdateBlock) -> None:
        for key, (times, values) in block.items():
            shard = shard_of_key(key, self.shards)
            position = 0
            while position < times.size:
                take = min(times.size - position, self.flush_budget - self._buffered)
                self._buffers[shard].append(key, times[position:position + take],
                                            values[position:position + take])
                position += take
                self.total += take
                self._buffered += take
                if self._buffered >= self.flush_budget:
                    self.flush()

    def flush(self) -> None:
        for shard, buffer in enumerate(self._buffers):
            if not buffer.keys:
                continue
            buffer.block().save_rcb(
                self.scratch_dir / f"part-r{self.range_index:04d}-s{shard:04d}"
                                   f"-c{self._chunks[shard]:05d}.rcb")
            self._chunks[shard] += 1
            self._buffers[shard] = _ShardBuffer()
        self._buffered = 0


@dataclass(frozen=True)
class _RangeTask:
    """Picklable spec of one phase-1 parse task."""

    dump_path: str
    start: int
    end: int
    first_line: int
    range_index: int
    shards: int
    scratch_dir: str
    flush_budget: int
    quarantine: bool
    header: tuple[str, ...] | None  # validated SNMP header cells (None: gNMI)
    metrics: tuple[str, ...] | None  # SNMP column metric names


@dataclass(frozen=True)
class _RangeResult:
    updates: int
    failures: tuple[FailureRecord, ...]


def _parse_range_worker(task: _RangeTask) -> _RangeResult:
    """Process-pool entry point: parse one byte range into shard part files."""
    try:
        return _parse_range(task)
    except Exception as error:
        raise BatchExecutionError.wrap(
            error, f"ingest range {task.range_index} of {task.dump_path} "
                   f"(bytes {task.start}..{task.end})") from error


def _parse_range(task: _RangeTask) -> _RangeResult:
    dump_path = Path(task.dump_path)
    scratch = Path(task.scratch_dir)
    # A retried task starts clean: drop any part files a previous attempt
    # of this range managed to flush before failing.
    for stale in sorted(scratch.glob(f"part-r{task.range_index:04d}-*.rcb")):
        stale.unlink()
    failures: list[FailureRecord] = []
    callback = _parse_failure_recorder(dump_path, failures) if task.quarantine else None
    writer = _ShardPartWriter(scratch, task.range_index, task.shards,
                              task.flush_budget)
    columns: tuple[list[str], list[str]] | None = None
    if task.header is not None and task.metrics is not None:
        columns = (list(task.header), list(task.metrics))
    for block in _iter_update_blocks(dump_path, task.start, task.end, task.first_line,
                                     callback, columns):
        writer.add_block(block)
    writer.flush()
    return _RangeResult(updates=writer.total, failures=tuple(failures))


# ----------------------------------------------------------------------
# Phase 2: one accumulator + finishing pass per shard
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardTask:
    """Picklable spec of one phase-2 shard-finishing task."""

    shard_index: int
    scratch_dir: str
    out_dir: str
    memory_budget_samples: int
    min_samples: int
    trace_format: str


@dataclass(frozen=True)
class _ShardResult:
    shard_index: int
    entries: tuple[dict, ...]
    skipped: tuple[dict, ...]
    updates: int
    peak_buffered_samples: int
    spilled_samples: int
    spill_writes: int


def _finish_shard_worker(task: _ShardTask) -> _ShardResult:
    """Process-pool entry point: accumulate + finish one shard's pairs."""
    try:
        return _finish_shard(task)
    except Exception as error:
        raise BatchExecutionError.wrap(
            error, f"ingest shard {task.shard_index}") from error


def _finish_shard(task: _ShardTask) -> _ShardResult:
    scratch = Path(task.scratch_dir)
    out_dir = Path(task.out_dir) / f"shard-{task.shard_index:04d}"
    acc_dir = scratch / f"acc-s{task.shard_index:04d}"
    # A retried task starts clean: a half-written previous attempt must
    # not leak trace files or scratch appends into this one.
    if out_dir.exists():
        shutil.rmtree(out_dir)
    if acc_dir.exists():
        shutil.rmtree(acc_dir)
    out_dir.mkdir(parents=True)
    parts = sorted(scratch.glob(f"part-r*-s{task.shard_index:04d}-c*.rcb"))
    with PairAccumulator(acc_dir, task.memory_budget_samples) as accumulator:
        for part_path in parts:
            part = ShardPartBlock.load_rcb(part_path)
            pairs = [(metric, device) for metric, device in json.loads(part.pairs)]
            order = np.argsort(part.key, kind="stable")
            sorted_keys = part.key[order]
            starts = np.searchsorted(sorted_keys, np.arange(len(pairs)))
            ends = np.searchsorted(sorted_keys, np.arange(1, len(pairs) + 1))
            for index, pair in enumerate(pairs):
                rows = order[starts[index]:ends[index]]
                if rows.size:
                    accumulator.extend(pair, part.t[rows], part.v[rows])
        # Canonical (metric, device) order within the shard; the parent's
        # merge interleaves the shards back into one globally sorted list.
        entries, skipped = _finish_pairs(accumulator, Path(task.out_dir),
                                         f"shard-{task.shard_index:04d}/trace-",
                                         task.trace_format, task.min_samples)
        counters = (accumulator.total_samples, accumulator.peak_buffered_samples,
                    accumulator.spilled_samples, accumulator.spill_writes)
    return _ShardResult(shard_index=task.shard_index, entries=tuple(entries),
                        skipped=tuple(skipped), updates=counters[0],
                        peak_buffered_samples=counters[1],
                        spilled_samples=counters[2], spill_writes=counters[3])


# ----------------------------------------------------------------------
# Orchestration: plan -> parse -> shard -> merge
# ----------------------------------------------------------------------
def _run_phase(worker_fn: Callable[[Any], Any], tasks: list[Any], workers: int,
               on_error: str) -> list[Any]:
    """Drive one phase through the fault-isolated pool, in task order.

    ``raise`` mode surfaces the first failed task -- re-raised as a plain
    ``ValueError`` when the worker hit one (a malformed line), keeping
    :func:`ingest_dump`'s error contract worker-count-independent.  In
    ``quarantine`` mode a task that is still failing after the pool's
    retries is replayed once in the parent: transient infrastructure
    faults (a crashed worker, a flaky filesystem) are salvaged
    deterministically, while a genuinely poisoned task fails the run.
    """
    results: list[Any] = []
    for index, outcome in run_batch_tasks(worker_fn, tasks, workers):
        if isinstance(outcome, BatchExecutionError):
            if on_error != "quarantine":
                if outcome.error_type == "ValueError":
                    raise ValueError(str(outcome)) from outcome
                raise outcome
            outcome = worker_fn(tasks[index])
        results.append(outcome)
    return results


def _sharded_ingest_into(dump: TelemetryDump, staging: Path, manifest_path: Path,
                         memory_budget_samples: int, min_samples: int,
                         trace_format: str, on_error: str, workers: int,
                         ) -> tuple[list[FailureRecord], IngestStats]:
    """The ``workers > 1`` body of :func:`ingest_dump`: parse, shard, merge.

    Builds the fleet into ``staging`` exactly as the serial
    ``_ingest_into`` would -- same trace bytes, same manifest bytes --
    and returns the quarantined parse failures in file order plus the run
    statistics.
    """
    if dump.format == SNMP_FORMAT:
        header, metrics, data_start, first_line = _read_snmp_header(dump.path)
    else:
        header, metrics, data_start, first_line = None, None, 0, 1
    ranges = plan_byte_ranges(dump.path, workers, data_start=data_start,
                              first_line=first_line)
    scratch = staging / ".ingest-shards"
    pending = staging / ".ingest-pending"
    scratch.mkdir(parents=True, exist_ok=True)
    pending.mkdir(parents=True, exist_ok=True)

    range_tasks = [
        _RangeTask(dump_path=str(dump.path),
                   start=byte_range.start, end=byte_range.end,
                   first_line=byte_range.first_line, range_index=index,
                   shards=workers, scratch_dir=str(scratch),
                   flush_budget=max(2, memory_budget_samples // len(ranges)),
                   quarantine=on_error == "quarantine",
                   header=tuple(header) if header is not None else None,
                   metrics=tuple(metrics) if metrics is not None else None)
        for index, byte_range in enumerate(ranges)]
    parse_results = _run_phase(_parse_range_worker, range_tasks, workers, on_error)
    failures = [failure for result in parse_results for failure in result.failures]
    if sum(result.updates for result in parse_results) == 0:
        raise ValueError(f"{dump.path}: no telemetry updates found "
                         f"(format {dump.format})")

    shard_tasks = [
        _ShardTask(shard_index=shard, scratch_dir=str(scratch),
                   out_dir=str(pending),
                   memory_budget_samples=max(2, memory_budget_samples // workers),
                   min_samples=min_samples, trace_format=trace_format)
        for shard in range(workers)]
    shard_results = _run_phase(_finish_shard_worker, shard_tasks, workers, on_error)

    # Deterministic merge: shard outputs interleave back into the global
    # canonical (metric, device) order, trace files are renumbered into
    # the serial layout, and the manifest is rebuilt from the merged list
    # -- every byte matches a workers=1 run because each shard finished
    # its pairs with the same set-determined pipeline.
    entries = sorted((dict(entry) for result in shard_results
                      for entry in result.entries),
                     key=lambda entry: (entry["metric"], entry["device"]))
    skipped = sorted((dict(entry) for result in shard_results
                      for entry in result.skipped),
                     key=lambda entry: (entry["metric"], entry["device"]))
    for index, entry in enumerate(entries):
        file_name = f"traces/pair-{index:05d}.{trace_format}"
        os.replace(pending / entry["file"], staging / file_name)
        entry["file"] = file_name
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.rmtree(pending, ignore_errors=True)

    stats = IngestStats(
        workers=workers, memory_budget_samples=memory_budget_samples,
        updates=sum(result.updates for result in shard_results),
        peak_buffered_samples=max(result.peak_buffered_samples
                                  for result in shard_results),
        spilled_samples=sum(result.spilled_samples for result in shard_results),
        spill_writes=sum(result.spill_writes for result in shard_results),
        ranges=len(ranges),
        shards=tuple(ShardIngestStats(
            shard=result.shard_index,
            updates=result.updates,
            pairs=len(result.entries),
            memory_budget_samples=max(2, memory_budget_samples // workers),
            peak_buffered_samples=result.peak_buffered_samples,
            spilled_samples=result.spilled_samples,
            spill_writes=result.spill_writes) for result in shard_results))
    _write_manifest(dump, manifest_path, trace_format, entries, skipped,
                    stats.updates, memory_budget_samples, failures, min_samples)
    return failures, stats
