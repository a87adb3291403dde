"""Streaming ingestion of raw monitoring exports into surveyable fleet directories.

The pipeline so far only reads fleets it exported itself
(:class:`~repro.telemetry.measured.MeasuredFleetDataset` directories).
Production archives are not shaped like that: monitoring systems dump
*streams* -- model-driven (gNMI) telemetry interleaves updates from many
(metric, device) pairs in one append-only log, and SNMP pollers write wide
per-poll tables.  This module converts both into the measured-fleet
directory layout, so ``run_survey``/``run_policy_survey`` (any
worker count or sink) point at real archives unchanged.

Two wire formats are supported, behind the format-sniffing
:func:`open_export` front end:

* **gNMI-style JSON lines** (``gnmi-jsonl``) -- one update per line, a
  JSON object with ``timestamp`` (seconds), ``device``, ``path`` (a
  YANG-ish metric path, see :data:`METRIC_PATHS`) and ``value``.  Updates
  from many pairs interleave arbitrarily in one stream.
* **SNMP-poller wide CSV** (``snmp-csv``) -- header
  ``timestamp,device,<metric...>`` and one row per poll of one device,
  one column per OID/metric path; empty cells are missed polls.

Both formats are read in bounded columnar blocks (:data:`UpdateBlock`,
see :meth:`TelemetryDump.updates`): about :data:`BLOCK_BYTES` of text at a
time, each block's updates grouped per pair.

The importer *streams* with bounded memory: a :class:`PairAccumulator`
buffers per-pair samples as float64 chunks and, once its in-memory budget
is hit, spills the largest partial series to one append-only scratch log
(the spill idiom of :mod:`repro.records`, applied to raw samples).
Timestamps in real exports are irregular -- jittered, duplicated, out of
order -- so each pair is finished through the irregular-trace machinery
(:class:`~repro.signals.timeseries.IrregularTimeSeries` ordering/dedupe +
nearest-neighbour regularisation onto the pair's dominant interval, §3.2's
pre-cleaning); the observed gap/jitter statistics are recorded per pair in
the manifest's ``ingest`` annotations.

Determinism: the output depends only on the *set* of updates in the dump,
never on their order -- pairs land in the manifest in canonical
(metric, device) order, each pair's samples are time-sorted, and
conflicting duplicate timestamps (a retried poll reporting a different
value) resolve to the smallest value -- so re-ingesting a shuffled copy
of a dump produces an identical fleet directory.  Malformed input fails
loudly with a ``ValueError`` naming the file and line.  The same
set-determinism is what lets ``ingest_dump(workers=N)`` hand the dump to
the sharded pipeline (:mod:`repro.telemetry.shard`) -- byte ranges parsed
in parallel, updates routed to per-shard accumulators by a stable
sha256 pair hash -- and still publish a byte-identical directory.

:func:`export_gnmi_dump` / :func:`export_snmp_dump` are the round-trip
emitters (also exposed as :class:`~repro.telemetry.source.BaseTraceSource`
methods): they fabricate realistic dumps from any trace source, which is
how the tests, benchmarks and CI exercise the importer end to end --
ingesting an exported synthetic fleet reproduces its survey records
bit for bit (in canonical pair order; ``true_nyquist_rate`` is ``NaN``
for ingested data, as for any genuinely measured fleet).  One column is
reconstructed rather than copied: a raw stream carries no nominal trace
duration, so the manifest's ``trace_duration`` is the longest pair span
(``samples x interval``) -- identical to the source's whenever its
duration is a whole number of polling intervals (true for every
catalogue metric over the paper's one-day traces), one interval short of
the nominal value otherwise.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Literal, Sequence

import numpy as np

from ..signals.timeseries import IrregularTimeSeries, TimeSeries
from ..core.resampling import nearest_neighbor_resample
from ..records import FailureRecord, FailureRecordBlock, RecordSink
from .measured import (MANIFEST_FORMAT, MANIFEST_NAME, TRACE_FORMATS,
                       MeasuredFleetDataset, _save_trace)
from .source import TraceSource
__all__ = [
    "GNMI_FORMAT",
    "SNMP_FORMAT",
    "EXPORT_FORMATS",
    "METRIC_PATHS",
    "PATH_METRICS",
    "metric_from_path",
    "path_for_metric",
    "UpdateBlock",
    "BLOCK_BYTES",
    "TelemetryDump",
    "open_export",
    "sniff_format",
    "PairAccumulator",
    "IngestStats",
    "ShardIngestStats",
    "ingest_dump",
    "export_gnmi_dump",
    "export_snmp_dump",
    "DEFAULT_MEMORY_BUDGET_SAMPLES",
]

#: Wire-format tags accepted by :func:`open_export` and the CLI.
GNMI_FORMAT = "gnmi-jsonl"
SNMP_FORMAT = "snmp-csv"
EXPORT_FORMATS: tuple[str, ...] = (GNMI_FORMAT, SNMP_FORMAT)

#: Default in-memory accumulator budget, in buffered (timestamp, value)
#: samples across all pairs (each costs 16 bytes of array payload, so the
#: default bounds the accumulator around a few MiB).
DEFAULT_MEMORY_BUDGET_SAMPLES: int = 1 << 18

#: YANG-ish telemetry paths for the metric catalogue -- what
#: :func:`export_gnmi_dump` emits and the importers map back to catalogue
#: names.  Paths outside this table are ingested verbatim as their own
#: metric names (measured fleets accept metrics outside the catalogue).
METRIC_PATHS: dict[str, str] = {
    "5-pct CPU util": "/system/cpus/cpu/state/total/p5",
    "Temperature": "/components/component/state/temperature/instant",
    "Memory usage": "/system/memory/state/utilized-percent",
    "Link util": "/interfaces/interface/state/utilization",
    "Unicast bytes": "/interfaces/interface/state/counters/out-unicast-bytes",
    "Multicast bytes": "/interfaces/interface/state/counters/out-multicast-bytes",
    "Unicast drops": "/interfaces/interface/state/counters/out-unicast-drops",
    "Multicast drops": "/interfaces/interface/state/counters/out-multicast-drops",
    "In-bound discards": "/interfaces/interface/state/counters/in-discards",
    "Out-bound discards": "/interfaces/interface/state/counters/out-discards",
    "FCS errors": "/interfaces/interface/ethernet/state/counters/in-fcs-errors",
    "Lossy paths": "/network-instances/network-instance/paths/state/lossy-count",
    "Peak egress BW": "/interfaces/interface/state/counters/peak-egress-bw",
    "Peak ingress BW": "/interfaces/interface/state/counters/peak-ingress-bw",
}

#: Reverse mapping: telemetry path -> catalogue metric name.
PATH_METRICS: dict[str, str] = {path: name for name, path in METRIC_PATHS.items()}


def metric_from_path(token: str) -> str:
    """Resolve a dump's metric path/column token to a metric name.

    Catalogue paths map to their catalogue names; anything else is used
    verbatim (the measured-fleet layer serves unknown metrics with a
    generic gauge spec at the recorded interval).
    """
    return PATH_METRICS.get(token, token)


def path_for_metric(name: str) -> str:
    """The telemetry path emitted for a metric (verbatim if uncatalogued)."""
    return METRIC_PATHS.get(name, name)


# ----------------------------------------------------------------------
# Reading raw exports
# ----------------------------------------------------------------------
#: Bytes of dump text parsed per :data:`UpdateBlock` (cut at a newline):
#: bounds the parse stage's transient memory while amortising its per-block
#: regex/numpy work over a few thousand updates.
BLOCK_BYTES: int = 1 << 19


#: One bounded slice of a dump's updates, grouped per pair (columnar): every
#: ``(metric, device)`` key of the slice, in first-seen order, mapped to that
#: key's float64 ``(timestamps, values)`` in arrival order.
UpdateBlock = dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]


class _BlockBuilder:
    """Collects one block's samples per key, keeping first-seen/arrival order."""

    def __init__(self) -> None:
        self._groups: dict[tuple[str, str], tuple[list[float], list[float]]] = {}

    def add(self, key: tuple[str, str], timestamp: float, value: float) -> None:
        times, values = self._groups.setdefault(key, ([], []))
        times.append(timestamp)
        values.append(value)

    def build(self) -> UpdateBlock:
        return {key: (np.array(times, dtype=np.float64),
                      np.array(values, dtype=np.float64))
                for key, (times, values) in self._groups.items()}


def _require_number(raw: object, what: str, path: Path, line_number: int) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"{path}, line {line_number}: {what} must be a number, "
                         f"got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        raise ValueError(f"{path}, line {line_number}: {what} must be finite, got "
                         f"a {len(str(abs(raw)))}-digit integer") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}, line {line_number}: {what} must be finite, "
                         f"got {raw!r}")
    return value


def _require_name(raw: object, what: str, path: Path, line_number: int) -> str:
    if not isinstance(raw, str) or not raw.strip():
        raise ValueError(f"{path}, line {line_number}: {what} must be a non-empty "
                         f"string, got {raw!r}")
    return raw.strip()


_GNMI_FIELDS = ("timestamp", "device", "path", "value")

#: Callback invoked with ``(line_number, error)`` for each malformed line a
#: quarantining reader skips instead of raising.
FailureCallback = Callable[[int, ValueError], None]


def _parse_gnmi_line(stripped: str, path: Path,
                     line_number: int) -> tuple[tuple[str, str], float, float]:
    """Parse one gNMI JSON-lines update into ``((metric, device), timestamp, value)``.

    Raises ``ValueError`` naming the file and line.
    """
    try:
        update = json.loads(stripped)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}, line {line_number}: malformed gNMI JSON "
                         f"update ({error.msg}): {stripped[:80]!r}") from error
    except ValueError as error:  # an integer literal past int()'s digit limit
        raise ValueError(f"{path}, line {line_number}: malformed gNMI JSON "
                         f"update ({error}): {stripped[:80]!r}") from error
    if not isinstance(update, dict):
        raise ValueError(f"{path}, line {line_number}: expected a JSON object "
                         f"per update, got {type(update).__name__}")
    missing = [field for field in _GNMI_FIELDS if field not in update]
    if missing:
        raise ValueError(f"{path}, line {line_number}: update is missing "
                         f"field(s) {missing}")
    timestamp = _require_number(update["timestamp"], "'timestamp'", path, line_number)
    value = _require_number(update["value"], "'value'", path, line_number)
    device = _require_name(update["device"], "'device'", path, line_number)
    token = _require_name(update["path"], "'path'", path, line_number)
    return (metric_from_path(token), device), timestamp, value


# The one line shape export_gnmi_dump writes, scanned with single-character
# negated classes (sre runs each as a tight loop): a number group runs to
# the field's terminator, and the device/path pair is captured as one
# string split at _NAME_SEPARATOR.  The groups check no grammar, so
# _parse_canonical_gnmi_block holds every distinct literal to the JSON
# number grammar and every distinct name to the plain-string rule.
_NAME_SEPARATOR = '", "path": "'
_CANONICAL_GNMI_LINE = re.compile(
    r'^\{"timestamp": ([^,]*+), "device": "([^"]*+' + _NAME_SEPARATOR
    + r'[^"]*+)", "value": ([^}]*+)\}\r?$', re.MULTILINE)
# JSON's number grammar (no leading zeros, no bare "." or "+"); [0-9], not
# \d, which also matches non-ASCII digits.
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]++)?+")
# A quoted name is its own JSON value verbatim unless it holds an escape or
# a control character (a quote already ends the name group).
_UNPLAIN_NAME_CHAR = re.compile(r"[\\\x00-\x1f]")


def _json_number_column(literals: Sequence[str]) -> np.ndarray | None:
    """Number literals as float64, bit-equal to ``float(json.loads(literal))``.

    ``None`` unless every literal is a JSON number.  Each distinct literal
    is checked and converted once.  ``float`` of a literal correctly
    rounds the same decimal value that json's int-then-float path rounds,
    so the two agree on every literal except the integer ``-0``: json
    reads the int 0, hence ``+0.0``.  (An integer past float range is
    ``inf`` here; callers reject it.)
    """
    numbers: dict[str, float] = dict.fromkeys(literals, 0.0)
    if not all(map(_JSON_NUMBER.fullmatch, numbers)):
        return None
    for literal in numbers:
        numbers[literal] = 0.0 if literal == "-0" else float(literal)
    return np.fromiter(map(numbers.__getitem__, literals), dtype=np.float64,
                       count=len(literals))


def _parse_canonical_gnmi_block(text: str, lines: int) -> UpdateBlock | None:
    """The gNMI fast path: one regex pass over a block of ``lines`` canonical lines.

    Returns ``None`` -- the caller re-parses the block line by line --
    unless each of the ``lines`` lines matched :data:`_CANONICAL_GNMI_LINE`
    on its own (so a blank line, or a group running across a newline,
    also sends the block to the fallback), every number literal follows
    the JSON grammar and is finite, and every name is plain and non-empty
    after ``str.strip()``.  An accepted block holds exactly what
    :func:`_parse_gnmi_line` would have produced.
    """
    rows = _CANONICAL_GNMI_LINE.findall(text)
    if not rows or len(rows) != lines:
        return None
    stamp_literals, names, value_literals = zip(*rows)
    times = _json_number_column(stamp_literals)
    values = _json_number_column(value_literals)
    if (times is None or values is None
            or not (np.isfinite(times).all() and np.isfinite(values).all())):
        return None
    raw_ids = {raw: index for index, raw in enumerate(dict.fromkeys(names))}
    raw_of_line = np.fromiter(map(raw_ids.__getitem__, names), dtype=np.intp,
                              count=len(rows))
    # Resolve each distinct raw device/path once; distinct raw names can
    # land on one key (" d" and "d", a catalogue path and its metric name).
    key_ids: dict[tuple[str, str], int] = {}
    key_of_raw = np.empty(len(raw_ids), dtype=np.intp)
    for raw_index, raw in enumerate(raw_ids):
        if _UNPLAIN_NAME_CHAR.search(raw):
            return None
        device, token = (name.strip() for name in raw.split(_NAME_SEPARATOR))
        if not token or not device:
            return None
        key = (metric_from_path(token), device)
        key_of_raw[raw_index] = key_ids.setdefault(key, len(key_ids))
    key_of_line = key_of_raw[raw_of_line]
    order = np.argsort(key_of_line, kind="stable")
    bounds = np.cumsum(np.bincount(key_of_line, minlength=len(key_ids)))[:-1]
    return dict(zip(key_ids, zip(np.split(times[order], bounds),
                                 np.split(values[order], bounds))))


def _parse_gnmi_block(text: str, path: Path, first_line: int, lines: int,
                      record_failure: FailureCallback | None) -> UpdateBlock:
    """Parse one block of ``lines`` gNMI JSON lines: the fast path, else line by line.

    The fallback runs every line through :func:`_parse_gnmi_line`, so error
    text, line numbers and quarantine provenance are the per-line reader's.
    """
    block = _parse_canonical_gnmi_block(text, lines)
    if block is not None:
        return block
    builder = _BlockBuilder()
    for line_number, line in enumerate(text.split("\n"), start=first_line):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            key, timestamp, value = _parse_gnmi_line(stripped, path, line_number)
        except ValueError as error:
            if record_failure is None:
                raise
            record_failure(line_number, error)
            continue
        builder.add(key, timestamp, value)
    return builder.build()


def _split_csv_line(line: str, path: Path, line_number: int) -> list[str]:
    """One CSV line's cells (``[]`` for an empty line), raising with file + line.

    Each line is its own CSV record: a quoted cell cannot carry a record
    across a newline, and a lone ``\\r`` inside a line is malformed.
    """
    try:
        return next(csv.reader((line,)), [])
    except csv.Error as error:
        raise ValueError(f"{path}, line {line_number}: malformed CSV row "
                         f"({error})") from None


def _parse_snmp_row(row: list[str], header: list[str], metrics: list[str],
                    path: Path, line_number: int,
                    ) -> tuple[float, str, list[tuple[str, float]]]:
    """Parse one SNMP CSV data row, raising with file + line.

    Returns ``(timestamp, device, [(metric, value), ...])`` for the row's
    non-empty cells.  The whole row is parsed before anything is returned,
    so a quarantining caller drops the row atomically -- a bad cell never
    leaks the row's earlier cells into the stream.
    """
    if len(row) != len(header):
        raise ValueError(f"{path}, line {line_number}: expected "
                         f"{len(header)} columns, got {len(row)}")
    try:
        timestamp = float(row[0])
    except ValueError:
        raise ValueError(f"{path}, line {line_number}: non-numeric "
                         f"timestamp {row[0]!r}") from None
    if not math.isfinite(timestamp):
        raise ValueError(f"{path}, line {line_number}: timestamp must be "
                         f"finite, got {row[0]!r}")
    device = row[1].strip()
    if not device:
        raise ValueError(f"{path}, line {line_number}: empty device id")
    cells: list[tuple[str, float]] = []
    for metric, cell in zip(metrics, row[2:]):
        cell = cell.strip()
        if not cell:
            continue  # missed poll for this metric
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(
                f"{path}, line {line_number}: non-numeric value {cell!r} in "
                f"column {metric!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}, line {line_number}: value in column "
                             f"{metric!r} must be finite, got {cell!r}")
        cells.append((metric, value))
    return timestamp, device, cells


def _parse_snmp_block(text: str, path: Path, first_line: int,
                      columns: tuple[list[str], list[str]],
                      record_failure: FailureCallback | None) -> UpdateBlock:
    """Parse one block of SNMP CSV data rows (row-atomic quarantine)."""
    header, metrics = columns
    builder = _BlockBuilder()
    for line_number, line in enumerate(text.split("\n"), start=first_line):
        try:
            row = _split_csv_line(line, path, line_number)
            if not row:
                continue
            timestamp, device, cells = _parse_snmp_row(row, header, metrics, path,
                                                       line_number)
        except ValueError as error:
            if record_failure is None:
                raise
            record_failure(line_number, error)
            continue
        for metric, value in cells:
            builder.add((metric, device), timestamp, value)
    return builder.build()


def _validate_snmp_header(header: list[str], path: Path,
                          header_line: int) -> list[str]:
    """Validate an SNMP header row and resolve its column metric names."""
    if (len(header) < 3 or header[0].strip() != "timestamp"
            or header[1].strip() != "device"):
        raise ValueError(
            f"{path}, line {header_line}: SNMP header must be 'timestamp,device' "
            f"followed by at least one metric column, got {','.join(header)!r}")
    metrics = [metric_from_path(cell.strip()) for cell in header[2:]]
    seen: set[str] = set()
    for metric in metrics:
        if metric in seen:
            raise ValueError(f"{path}, line {header_line}: duplicate metric "
                             f"column {metric!r}")
        seen.add(metric)
    return metrics


def _read_snmp_header(path: Path) -> tuple[list[str], list[str], int, int]:
    """Parse + validate an SNMP dump's header: its first non-blank line.

    Returns ``(header cells, column metrics, data byte offset, first data
    line number)``.  The serial reader and the sharded planner (which
    reads the header once before fanning ranges out) both start here, so
    a broken header fails with the same error on either path.  Header
    problems always raise, even in quarantine mode: with no usable header
    the rest of the file cannot be interpreted at all.
    """
    offset = 0
    line_number = 0
    with path.open("rb") as handle:
        for raw in handle:  # binary lines: split at "\n" only
            line_number += 1
            offset += len(raw)
            text = raw.decode("utf-8")
            if text.strip():
                header = _split_csv_line(text, path, line_number)
                metrics = _validate_snmp_header(header, path, line_number)
                return header, metrics, offset, line_number + 1
    raise ValueError(f"{path}, line 1: empty SNMP export (missing "
                     "'timestamp,device,<metric...>' header)")


def _iter_text_blocks(path: Path, start: int, end: int) -> Iterator[str]:
    """Yield ``path[start:end]`` as decoded text blocks of about :data:`BLOCK_BYTES`.

    Every block but the last ends with ``\\n``, so no line straddles two
    blocks (a line longer than a block grows its block instead).  Only
    ``\\n`` ends a line -- the JSON Lines rule, and what the sharded
    path's byte ranges are cut on -- so a lone ``\\r`` stays inside its
    line; ``str.strip()`` still absorbs the ``\\r`` of a CRLF ending.
    """
    with path.open("rb") as handle:
        handle.seek(start)
        remaining = end - start
        carry = b""
        while remaining > 0:
            chunk = handle.read(min(BLOCK_BYTES, remaining))
            if not chunk:
                break  # the file shrank underneath us; serve what we have
            remaining -= len(chunk)
            data = carry + chunk
            cut = data.rfind(b"\n") + 1 if remaining > 0 else len(data)
            carry = data[cut:]
            if cut:
                yield data[:cut].decode("utf-8")
        if carry:
            yield carry.decode("utf-8")


def _iter_update_blocks(path: Path, start: int, end: int, first_line: int,
                        record_failure: FailureCallback | None,
                        columns: tuple[list[str], list[str]] | None,
                        ) -> Iterator[UpdateBlock]:
    """Parse the whole lines of ``path[start:end]`` into :data:`UpdateBlock` s.

    The one reader behind both ingest paths: the serial importer runs it
    over a dump's whole data section, each sharded range worker over its
    own line-aligned byte range.  ``first_line`` numbers the range's
    first line.  ``columns`` is an SNMP dump's validated ``(header,
    metrics)`` pair; ``None`` reads gNMI JSON lines.
    """
    line_number = first_line
    for text in _iter_text_blocks(path, start, end):
        newlines = text.count("\n")
        if columns is None:
            lines = newlines + int(not text.endswith("\n"))
            block = _parse_gnmi_block(text, path, line_number, lines, record_failure)
        else:
            block = _parse_snmp_block(text, path, line_number, columns,
                                      record_failure)
        line_number += newlines
        if block:
            yield block


def sniff_format(path: Path | str) -> str:
    """Guess the wire format of a dump from its first non-empty line."""
    path = Path(path)
    try:
        with path.open() as handle:
            for line in handle:
                stripped = line.strip()
                if stripped:
                    break
            else:
                stripped = ""
    except OSError as error:
        raise ValueError(f"cannot read telemetry export {path}: {error}") from error
    if not stripped:
        raise ValueError(f"{path}: empty file; cannot sniff the export format")
    if stripped.startswith("{"):
        return GNMI_FORMAT
    first_cells = [cell.strip() for cell in stripped.split(",")]
    if first_cells[:2] == ["timestamp", "device"] and len(first_cells) >= 3:
        return SNMP_FORMAT
    raise ValueError(
        f"{path}: unrecognised export format (line 1: {stripped[:80]!r}); expected "
        "gNMI JSON-lines updates or an SNMP 'timestamp,device,<metric...>' CSV "
        f"header -- pass an explicit format ({', '.join(EXPORT_FORMATS)})")


@dataclass(frozen=True)
class TelemetryDump:
    """A raw monitoring export opened for streaming: path + resolved format."""

    path: Path
    format: str

    def updates(self, record_failure: FailureCallback | None = None,
                ) -> Iterator[UpdateBlock]:
        """Stream the dump in file order as bounded columnar :data:`UpdateBlock` s.

        Each block covers about :data:`BLOCK_BYTES` of dump text cut at a
        line end and groups its updates per ``(metric, device)`` key, so
        memory stays O(block) however long the dump is.  A line is
        ``\\n``-terminated in both formats.  gNMI blocks whose every line
        has :func:`export_gnmi_dump`'s canonical shape are parsed in one
        regex pass; any other block is re-parsed line by line with the
        per-line error reporting.  SNMP rows are parsed row-atomically.

        ``record_failure`` switches the reader into quarantine mode:
        malformed lines/rows are reported to the callback and skipped
        instead of raising (structural errors -- an unreadable SNMP
        header -- still raise).
        """
        columns: tuple[list[str], list[str]] | None = None
        start, first_line = 0, 1
        if self.format == SNMP_FORMAT:
            header, metrics, start, first_line = _read_snmp_header(self.path)
            columns = (header, metrics)
        yield from _iter_update_blocks(self.path, start, self.path.stat().st_size,
                                       first_line, record_failure, columns)


def _has_content(path: Path) -> bool:
    """True when ``path`` holds at least one non-whitespace byte."""
    try:
        with path.open("rb") as handle:
            while chunk := handle.read(1 << 16):
                if chunk.strip():
                    return True
    except OSError as error:
        raise ValueError(f"cannot read telemetry export {path}: {error}") from error
    return False


def open_export(path: Path | str, fmt: str | None = None) -> TelemetryDump:
    """Open a raw monitoring export, sniffing the wire format when not given.

    An empty (or whitespace-only) file is rejected up front with a
    ``ValueError`` naming the path, whether the format was sniffed or
    given explicitly -- there is nothing to ingest either way, and the
    eager check beats an obscure downstream parse failure.
    """
    path = Path(path)
    if fmt is None:
        fmt = sniff_format(path)
    elif fmt not in EXPORT_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}; choose one of "
                         f"{EXPORT_FORMATS} (or omit it to sniff)")
    elif not path.is_file():
        raise ValueError(f"cannot read telemetry export {path}: no such file")
    elif not _has_content(path):
        raise ValueError(f"{path}: empty file (or whitespace only); "
                         f"no {fmt} telemetry to ingest")
    return TelemetryDump(path, fmt)


# ----------------------------------------------------------------------
# Bounded-memory accumulation
# ----------------------------------------------------------------------
class PairAccumulator:
    """Per-pair (timestamp, value) buffers with an overall in-memory budget.

    ``extend`` appends a pair's samples to its buffer, a list of float64
    chunks; each chunk is a copy, so a buffer never pins the (larger)
    arrays its samples were sliced from.  Whenever the total buffered
    sample count reaches ``memory_budget_samples``, the largest buffers
    are spilled until at most half the budget remains buffered, so peak
    accumulator memory is bounded by the budget no matter how many pairs
    interleave in the stream or how long it runs.

    All spills go to one append-only scratch log, opened on the first
    spill and held until :meth:`close`: each spill round is one write of
    every spilled pair's segment (its timestamps, then its values), and a
    per-pair ``(offset, count)`` segment index finds them again.
    ``samples()`` reads a pair's segments back in order, then its live
    chunks (in arrival order; callers sort).
    """

    _LOG_NAME = "spill.f8"

    def __init__(self, scratch_dir: Path | str,
                 memory_budget_samples: int = DEFAULT_MEMORY_BUDGET_SAMPLES) -> None:
        if memory_budget_samples < 2:
            raise ValueError("memory_budget_samples must be >= 2")
        self.scratch_dir = Path(scratch_dir)
        self.scratch_dir.mkdir(parents=True, exist_ok=True)
        self.memory_budget_samples = int(memory_budget_samples)
        # Per pair, in first-seen order: buffered sample count, live
        # (times, values) chunks and spilled (offset, count) log segments.
        self._buffered: dict[tuple[str, str], int] = {}
        self._chunks: dict[tuple[str, str], list[tuple[np.ndarray, np.ndarray]]] = {}
        self._segments: dict[tuple[str, str], list[tuple[int, int]]] = {}
        self._log_path = self.scratch_dir / self._LOG_NAME
        self._log: io.BufferedRandom | None = None
        self._log_size = 0  # float64 items written to the log
        self.buffered_samples = 0
        self.peak_buffered_samples = 0
        self.spilled_samples = 0
        self.spill_writes = 0
        self.total_samples = 0

    # ------------------------------------------------------------------
    def extend(self, key: tuple[str, str], times: Sequence[float] | np.ndarray,
               values: Sequence[float] | np.ndarray) -> None:
        """Append one pair's samples (in arrival order), honouring the budget.

        Samples are appended in slices that fill the budget's remaining
        room, with one spill check per slice, so the buffered total never
        exceeds ``memory_budget_samples`` however large the chunk is.
        """
        chunk_times = np.asarray(times, dtype=np.float64)
        chunk_values = np.asarray(values, dtype=np.float64)
        if chunk_times.shape != chunk_values.shape or chunk_times.ndim != 1:
            raise ValueError("times and values must be equal-length 1-D arrays")
        chunks = self._chunks.get(key)
        if chunks is None:
            chunks = self._chunks[key] = []
            self._buffered[key] = 0
            self._segments[key] = []
        position = 0
        count = int(chunk_times.size)
        while position < count:
            room = max(1, self.memory_budget_samples - self.buffered_samples)
            take = min(count - position, room)
            end = position + take
            chunks.append((chunk_times[position:end].copy(),
                           chunk_values[position:end].copy()))
            position = end
            self._buffered[key] += take
            self.buffered_samples += take
            self.total_samples += take
            if self.buffered_samples > self.peak_buffered_samples:
                self.peak_buffered_samples = self.buffered_samples
            if self.buffered_samples >= self.memory_budget_samples:
                self._spill_down_to(self.memory_budget_samples // 2)

    def _spill_down_to(self, target: int) -> None:
        # Largest buffers first: the fewest pairs leave memory per round.
        # The round's segments are written to the log in one append.
        pieces: list[np.ndarray] = []
        for key in sorted(self._buffered, key=self._buffered.__getitem__, reverse=True):
            if self.buffered_samples <= target:
                break
            count = self._buffered[key]
            if count == 0:
                continue
            chunks = self._chunks[key]
            pieces.extend(times for times, _ in chunks)
            pieces.extend(values for _, values in chunks)
            self._segments[key].append((self._log_size, count))
            self._log_size += 2 * count
            chunks.clear()
            self._buffered[key] = 0
            self.buffered_samples -= count
            self.spilled_samples += count
            self.spill_writes += 1
        if pieces:
            if self._log is None:
                self._log = self._log_path.open("w+b")
            self._log.seek(0, os.SEEK_END)
            self._log.write(np.concatenate(pieces).data)

    # ------------------------------------------------------------------
    def keys(self) -> list[tuple[str, str]]:
        """All (metric, device) keys seen so far, in first-seen order."""
        return list(self._buffered)

    def samples(self, key: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
        """One pair's accumulated (timestamps, values), in arrival order."""
        if key not in self._buffered:
            raise KeyError(key)
        segments = self._segments[key]
        total = self._buffered[key] + sum(count for _, count in segments)
        times = np.empty(total, dtype=np.float64)
        values = np.empty(total, dtype=np.float64)
        position = 0
        for offset, count in segments:
            end = position + count
            self._read_log(offset, times[position:end])
            self._read_log(offset + count, values[position:end])
            position = end
        for chunk_times, chunk_values in self._chunks[key]:
            end = position + chunk_times.size
            times[position:end] = chunk_times
            values[position:end] = chunk_values
            position = end
        return times, values

    def _read_log(self, offset: int, out: np.ndarray) -> None:
        """Fill ``out`` from the log's float64 items starting at ``offset``."""
        assert self._log is not None  # a segment exists only once the log is open
        self._log.seek(offset * out.itemsize)
        if self._log.readinto(out.data) != out.nbytes:
            raise ValueError(f"truncated ingest scratch log {self._log_path}: "
                             "a spilled segment runs past its end")

    def close(self) -> None:
        """Close and delete the scratch log (the accumulator is unusable afterwards)."""
        if self._log is not None:
            self._log.close()
            self._log = None
        self._buffered.clear()
        self._chunks.clear()
        self._segments.clear()
        shutil.rmtree(self.scratch_dir, ignore_errors=True)

    def __enter__(self) -> "PairAccumulator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Finishing pairs: ordering, dedupe, regularisation, stats
# ----------------------------------------------------------------------
def _finish_pair(metric: str, device: str, times: np.ndarray, values: np.ndarray,
                 min_samples: int) -> tuple[TimeSeries | None, dict]:
    """Turn one pair's raw samples into a regular trace + ingest annotations.

    Returns ``(None, stats)`` when the pair has too few distinct samples
    to serve (it is recorded as skipped in the manifest).  Otherwise the
    samples are time-ordered, duplicate timestamps dropped, and -- if the
    observed gaps deviate from the dominant (median) interval --
    re-sampled onto that interval's regular grid with nearest-neighbour
    values, exactly the §3.2 pre-cleaning.  Already regular streams pass
    through bit for bit.

    Duplicates are resolved by *content*, not stream position: samples
    are sorted by (timestamp, value) and the first of each distinct
    timestamp kept, so a retried poll that reports a conflicting value
    deterministically loses to the smaller one no matter how the two
    updates were interleaved -- shuffled copies of a dump ingest
    identically.
    """
    raw = np.asarray(times, dtype=np.float64)
    raw_values = np.asarray(values, dtype=np.float64)
    order = np.lexsort((raw_values, raw))
    sorted_times = raw[order]
    sorted_values = raw_values[order]
    keep = (np.concatenate([[True], np.diff(sorted_times) > 0])
            if sorted_times.size else np.zeros(0, dtype=bool))
    deduped = IrregularTimeSeries(sorted_times[keep], sorted_values[keep],
                                  name=f"{metric}@{device}")
    stats: dict = {"raw_samples": int(raw.size),
                   "duplicates_dropped": int(raw.size - len(deduped))}
    if len(deduped) < min_samples:
        stats["skipped"] = f"only {len(deduped)} distinct samples (< {min_samples})"
        return None, stats
    interval = deduped.median_interval()
    gaps = deduped.intervals()
    jitter_rms = float(np.sqrt(np.mean((gaps / interval - 1.0) ** 2)))
    stats.update({
        "dominant_interval": interval,
        "jitter_rms_fraction": jitter_rms,
        "max_gap_intervals": float(np.max(gaps) / interval),
    })
    regular = bool(np.all(np.abs(gaps - interval) <= 1e-9 * interval))
    if regular:
        trace = TimeSeries(deduped.values, interval, start_time=deduped.start_time,
                           name=deduped.name)
    else:
        trace = nearest_neighbor_resample(deduped, interval)
    stats["resampled"] = not regular
    stats["samples"] = int(len(trace))
    return trace, stats


def _finish_pairs(accumulator: PairAccumulator, root: Path, name_prefix: str,
                  trace_format: str, min_samples: int) -> tuple[list[dict], list[dict]]:
    """Finish every accumulated pair into trace files plus manifest entries.

    Pairs go in canonical (metric, device) order: the output depends only
    on the dump's update *set*, so shuffled/merged copies ingest
    identically, and each metric's pairs come out contiguous as the
    survey's per-metric iteration requires.  Each kept pair is saved as
    ``root / f"{name_prefix}{index:05d}.{trace_format}"`` (the manifest
    ``file`` is the path relative to ``root``); pairs below
    ``min_samples`` become skipped entries.  Shared by the serial ingest
    and each shard of the sharded one.
    """
    entries: list[dict] = []
    skipped: list[dict] = []
    for key in sorted(accumulator.keys()):
        metric, device = key
        times, values = accumulator.samples(key)
        trace, stats = _finish_pair(metric, device, times, values, min_samples)
        if trace is None:
            skipped.append({"metric": metric, "device": device, **stats})
            continue
        file_name = f"{name_prefix}{len(entries):05d}.{trace_format}"
        _save_trace(root / file_name, trace, trace_format)
        entries.append({"metric": metric, "device": device,
                        "interval": trace.interval, "length": len(trace),
                        "file": file_name, "ingest": stats})
    return entries, skipped


def _parse_failure_recorder(dump_path: Path,
                            failures: list[FailureRecord]) -> FailureCallback:
    """A ``record_failure`` callback quarantining bad lines into ``failures``."""
    def record_failure(line_number: int, error: ValueError) -> None:
        failures.append(FailureRecord(
            metric_name="", device_id="", stage="parse",
            error_type=type(error).__name__, message=str(error),
            provenance=f"{dump_path}:{line_number}"))
    return record_failure


# ----------------------------------------------------------------------
# Run statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardIngestStats:
    """One shard's accumulator counters from a sharded (``workers > 1``) ingest."""

    shard: int
    updates: int
    pairs: int
    memory_budget_samples: int
    peak_buffered_samples: int
    spilled_samples: int
    spill_writes: int


@dataclass(frozen=True)
class IngestStats:
    """Run statistics of one :func:`ingest_dump` call.

    These are properties of *how* the run executed (buffering peaks,
    spill traffic, worker fan-out), not of the ingested data, so they
    live on the returned dataset's ``ingest_stats`` attribute rather
    than in the manifest -- the manifest stays byte-identical across
    worker counts.  For a sharded run ``peak_buffered_samples`` is the
    largest *per-shard* accumulator peak (each shard gets
    ``memory_budget_samples / workers``) and ``shards`` carries the
    per-shard breakdown; serial runs leave ``shards`` empty.

    ``spill_writes`` counts per-pair spill segments: a spill round that
    moves three pairs to the scratch log is one write of three segments
    and counts 3.
    """

    workers: int
    memory_budget_samples: int
    updates: int
    peak_buffered_samples: int
    spilled_samples: int
    spill_writes: int
    ranges: int = 1
    shards: tuple[ShardIngestStats, ...] = field(default=())


# ----------------------------------------------------------------------
# The importer
# ----------------------------------------------------------------------
def ingest_dump(dump: Path | str | TelemetryDump, directory: Path | str,
                memory_budget_samples: int = DEFAULT_MEMORY_BUDGET_SAMPLES,
                min_samples: int = 2,
                trace_format: Literal["rcb", "csv"] = "rcb",
                on_error: Literal["raise", "quarantine"] = "raise",
                failure_sink: RecordSink | None = None,
                workers: int = 1,
                ) -> MeasuredFleetDataset:
    """Stream one raw monitoring export into a measured-fleet directory.

    Parameters
    ----------
    dump:
        The export file, whose wire format is sniffed, or a dump opened
        with :func:`open_export` (which can name one of
        :data:`EXPORT_FORMATS` outright).
    directory:
        Destination; must not already hold a measured fleet.  On success
        it contains one trace file per ingested pair plus a
        ``manifest.json`` that :class:`MeasuredFleetDataset` (and hence
        ``repro-monitor survey --from-dir``) opens unchanged; ingest
        provenance (per-pair gap/jitter statistics, the update count and
        quarantined lines) is recorded under its ``ingest`` keys.
        Run-dependent counters (buffering peaks, spill traffic) are *not*
        in the manifest -- they come back on the dataset's
        ``ingest_stats`` attribute -- so the directory's bytes depend
        only on the dump's update set and the ingest parameters.

        The build is *atomic*: everything is staged in a sibling
        ``<directory>.partial`` working directory and only published --
        manifest last -- once the whole ingest has succeeded, so a
        crashed or failed run never leaves a half-built fleet at the
        destination (a stale ``.partial`` from an interrupted run is
        reclaimed by the next attempt).
    memory_budget_samples:
        Peak samples buffered in memory across all pairs (16 bytes each);
        the :class:`PairAccumulator` spills partial series to a scratch
        log past it, so arbitrarily large dumps ingest in bounded memory.
    min_samples:
        Pairs with fewer *distinct-timestamp* samples are skipped (and
        recorded in the manifest) instead of producing degenerate traces;
        must be at least 2, since a lone sample has no interval.
    trace_format:
        Per-pair trace file format: ``rcb`` (default; one checksummed
        :class:`~repro.telemetry.measured.TraceBlock` per pair) or ``csv``
        (human-readable ``timestamp,value`` rows).
    on_error:
        ``"raise"`` (default) aborts on the first malformed line;
        ``"quarantine"`` skips malformed lines/rows, records each as a
        :class:`~repro.records.FailureRecord` (stage ``"parse"``,
        provenance ``file:line``) and ingests every healthy update.
        Structural errors (unreadable SNMP header, empty dump) always
        raise.  Quarantined line numbers are also listed in the
        manifest's ``ingest`` summary.
    failure_sink:
        Destination for the quarantined-failure blocks (in-memory or
        spilling); pass one to retain per-line failure records beyond
        the manifest's line-number accounting.
    workers:
        ``1`` (default) ingests serially in-process.  ``N > 1`` runs the
        sharded pipeline (:mod:`repro.telemetry.shard`): the dump is
        split into line-aligned byte ranges parsed in parallel, updates
        are routed to ``N`` shards by a stable sha256 hash of their
        ``(metric, device)`` key, and each shard runs its own
        accumulator + finishing pass with a ``memory_budget_samples /
        N`` budget.  The published directory is **byte-identical** to a
        ``workers=1`` run for any worker count.  The sharded pipeline's
        process pools retry transient failures and crashed workers up to
        :data:`~repro.faults.MAX_ATTEMPTS` tries (see
        :func:`repro.faults.execution.run_batch_tasks`).

    Raises
    ------
    ValueError
        On malformed input (naming the file and line), a used destination
        directory, or a dump with no ingestible pairs.

    The returned dataset carries the run's accumulator counters (peak
    buffered samples, spill traffic, worker fan-out) on its
    ``ingest_stats`` attribute -- see :class:`IngestStats`.
    """
    if not isinstance(dump, TelemetryDump):
        dump = open_export(dump)
    if trace_format not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {trace_format!r}; "
                         f"choose one of {TRACE_FORMATS}")
    if min_samples < 2:
        raise ValueError("min_samples must be >= 2 (a lone sample has no interval)")
    if on_error not in ("raise", "quarantine"):
        raise ValueError(f"on_error must be 'raise' or 'quarantine', got {on_error!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if failure_sink is not None and failure_sink.rows > 0:
        raise ValueError(
            f"failure_sink already holds {failure_sink.rows} records; ingest_dump "
            "needs an empty failure sink")
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if directory.exists() and not directory.is_dir():
        raise ValueError(f"ingest destination {directory} exists and is not a directory")
    if manifest_path.exists():
        raise ValueError(f"{directory} already holds a measured fleet "
                         f"({MANIFEST_NAME} exists); ingest needs a fresh directory")
    staging = directory.parent / f"{directory.name}.partial"
    if staging.exists():  # stale leftover of an interrupted run
        shutil.rmtree(staging)
    try:
        (staging / "traces").mkdir(parents=True)
    except OSError as error:
        raise ValueError(f"cannot create ingest staging directory {staging}: "
                         f"{error}") from error
    try:
        if workers == 1:
            failures, stats = _ingest_into(dump, staging, staging / MANIFEST_NAME,
                                           memory_budget_samples, min_samples,
                                           trace_format, on_error)
        else:
            from .shard import _sharded_ingest_into
            failures, stats = _sharded_ingest_into(
                dump, staging, staging / MANIFEST_NAME, memory_budget_samples,
                min_samples, trace_format, on_error, workers)
    except BaseException:
        # A failed ingest (malformed dump, write error) only ever costs
        # the staging directory; the destination is untouched.
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _publish_staging(staging, directory)
    if failure_sink is not None and failures:
        failure_sink.append(FailureRecordBlock.from_failures(failures))
    dataset = MeasuredFleetDataset(directory)
    dataset.ingest_stats = stats
    return dataset


def _publish_staging(staging: Path, directory: Path) -> None:
    """Atomically publish a fully-built staging directory at the destination.

    A fresh destination is a single ``rename``.  A pre-existing
    (manifest-less) destination directory receives the trace files first
    and the manifest last, so the commit point -- the manifest appearing
    -- still happens only after every trace is in place.
    """
    if not directory.exists():
        staging.rename(directory)
        return
    (directory / "traces").mkdir(exist_ok=True)
    for file in sorted((staging / "traces").iterdir()):
        os.replace(file, directory / "traces" / file.name)
    os.replace(staging / MANIFEST_NAME, directory / MANIFEST_NAME)
    shutil.rmtree(staging, ignore_errors=True)


def _ingest_into(dump: TelemetryDump, directory: Path, manifest_path: Path,
                 memory_budget_samples: int, min_samples: int,
                 trace_format: str, on_error: str,
                 ) -> tuple[list[FailureRecord], IngestStats]:
    """The serial accumulate -> finish -> manifest body of :func:`ingest_dump`.

    Builds the fleet into ``directory`` (the staging area) and returns
    the quarantined parse failures (empty in ``raise`` mode, which
    aborts on the first one instead) plus the run statistics.
    """
    failures: list[FailureRecord] = []
    callback = (_parse_failure_recorder(dump.path, failures)
                if on_error == "quarantine" else None)
    with PairAccumulator(directory / ".ingest-scratch",
                         memory_budget_samples) as accumulator:
        for block in dump.updates(record_failure=callback):
            for key, (times, values) in block.items():
                accumulator.extend(key, times, values)
        if not accumulator.keys():
            raise ValueError(f"{dump.path}: no telemetry updates found "
                             f"(format {dump.format})")
        entries, skipped = _finish_pairs(accumulator, directory, "traces/pair-",
                                         trace_format, min_samples)
        run_stats = IngestStats(
            workers=1,
            memory_budget_samples=accumulator.memory_budget_samples,
            updates=accumulator.total_samples,
            peak_buffered_samples=accumulator.peak_buffered_samples,
            spilled_samples=accumulator.spilled_samples,
            spill_writes=accumulator.spill_writes)
    _write_manifest(dump, manifest_path, trace_format, entries, skipped,
                    run_stats.updates, memory_budget_samples, failures,
                    min_samples)
    return failures, run_stats


def _write_manifest(dump: TelemetryDump, manifest_path: Path, trace_format: str,
                    entries: list[dict], skipped: list[dict], updates: int,
                    memory_budget_samples: int, failures: list[FailureRecord],
                    min_samples: int) -> None:
    """Write the measured-fleet manifest for a finished ingest.

    Shared by the serial and sharded paths, so the manifest bytes are a
    pure function of the merged pair entries -- every summary field here
    is determined by the dump's update set and the ingest *parameters*,
    never by how the run executed (those counters live in
    :class:`IngestStats`), which is what makes ``workers=N`` output
    byte-identical to serial output.
    """
    if not entries:
        raise ValueError(
            f"{dump.path}: all {len(skipped)} pairs fell below min_samples="
            f"{min_samples}; nothing to ingest")
    metrics: list[str] = []
    for entry in entries:
        if entry["metric"] not in metrics:
            metrics.append(entry["metric"])
    summary = {
        "source": str(dump.path), "format": dump.format,
        "updates": updates,
        "memory_budget_samples": memory_budget_samples,
        "pairs_skipped": skipped,
        "quarantined_lines": [
            int(failure.provenance.rsplit(":", 1)[1]) for failure in failures],
    }
    # A raw stream carries no nominal duration; the longest pair span is
    # the faithful reconstruction (see the module docstring).
    trace_duration = max(entry["interval"] * entry["length"] for entry in entries)
    manifest = {"format": MANIFEST_FORMAT, "trace_format": trace_format,
                "trace_duration": trace_duration, "metrics": metrics,
                "pairs": entries, "ingest": summary}
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")


# ----------------------------------------------------------------------
# Round-trip emitters: fabricate realistic dumps from any trace source
# ----------------------------------------------------------------------
def export_gnmi_dump(source: TraceSource, path: Path | str) -> Path:
    """Write ``source`` as an interleaved gNMI-style JSON-lines dump.

    Updates are emitted globally time-ordered (ties broken by pair), the
    way a telemetry collector's append-only log interleaves many
    subscriptions into one stream.  Ingesting the dump reproduces every
    trace bit for bit, so synthetic fleets can fabricate arbitrarily
    large, realistic importer workloads.
    """
    path = Path(path)

    def pair_stream(order: int, pair: Any,
                    trace: TimeSeries) -> Iterator[tuple[float, int, str]]:
        # json.dumps on str adds the quotes/escaping once per pair; the
        # per-line payload is assembled with repr floats (exact round trip).
        device_json = json.dumps(pair.key[1])
        path_json = json.dumps(path_for_metric(pair.key[0]))
        times = trace.times()
        for index in range(len(trace)):
            yield (float(times[index]), order,
                   f'{{"timestamp": {float(times[index])!r}, "device": {device_json}, '
                   f'"path": {path_json}, "value": {float(trace.values[index])!r}}}\n')

    streams = []
    order = 0
    for metric_name in source.metric_names():
        for pair, trace in source.traces(metric_name):
            streams.append(pair_stream(order, pair, trace))
            order += 1
    with path.open("w") as handle:
        for _, _, line in heapq.merge(*streams):
            handle.write(line)
    return path


def export_snmp_dump(source: TraceSource, path: Path | str) -> Path:
    """Write ``source`` as an SNMP-poller wide CSV dump.

    One row per (poll time, device) with one column per metric path, the
    way a poller tabulates each scrape; metrics polled at different rates
    leave their cells empty between polls.  Ingesting the dump reproduces
    every trace bit for bit.
    """
    path = Path(path)
    metric_names = source.metric_names()
    by_device: dict[str, dict[str, TimeSeries]] = {}
    for metric_name in metric_names:
        for pair, trace in source.traces(metric_name):
            by_device.setdefault(pair.key[1], {})[metric_name] = trace

    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "device"]
                        + [path_for_metric(name) for name in metric_names])
        # Canonical device order: dump bytes depend on the trace *set*,
        # not on the metric-major order the traces were gathered in.
        for device, traces in sorted(by_device.items()):
            cells: dict[float, list[str]] = {}
            for column, metric_name in enumerate(metric_names):
                trace = traces.get(metric_name)
                if trace is None:
                    continue
                times = trace.times()
                for index in range(len(trace)):
                    row = cells.setdefault(float(times[index]), [""] * len(metric_names))
                    row[column] = repr(float(trace.values[index]))
            for timestamp in sorted(cells):
                writer.writerow([repr(timestamp), device] + cells[timestamp])
    return path
