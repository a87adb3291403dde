"""File-backed measured fleets: surveying recorded telemetry instead of models.

The paper's survey runs over *measured* production traces (1613
metric-device pairs recorded by real monitoring systems), not synthetic
ones.  :class:`MeasuredFleetDataset` serves exactly that workload: a
directory holding one trace file per (metric, device) pair plus a
``manifest.json`` describing them, exposed through the same
:class:`~repro.telemetry.source.TraceSource` protocol the synthetic
:class:`~repro.telemetry.dataset.FleetDataset` implements -- so
``run_survey(workers=N, sink=...)`` runs unchanged on
recorded data.  Multi-worker batch specs address the directory by
file-offset slices of the manifest's pair list instead of regenerating a
config, and a bad address fails loudly against the manifest's pair count.

Directory layout (written by ``FleetDataset.export(dir)`` or
``repro-monitor export-fleet``)::

    fleet-dir/
      manifest.json            # format, trace_format, trace_duration,
                               # metrics (survey order), pairs: one entry
                               # of (metric, device, interval, length,
                               # true_nyquist_rate, file) per pair
      traces/pair-00000.rcb    # one TraceBlock: values + interval,
      traces/pair-00001.rcb    # start_time, crc32 (or .csv: timestamp,value)
      ...

Trace files are ``.rcb`` (the default) or ``.csv``.  An rcb trace is one
:class:`TraceBlock` in the record format of :mod:`repro.records`: raw
little-endian float64 values read back with one read, plus a CRC-32 over
the values and both scalars that :meth:`MeasuredFleetDataset.load`
checks, so bit rot anywhere in the file fails loudly instead of loading
a different trace.  csv traces are ``timestamp,value`` rows with
full-precision ``repr`` floats, readable by ``repro-monitor estimate``.
Both round-trip synthetic fleets to byte-identical survey records.  For
genuinely measured data the manifest's ``true_nyquist_rate`` entries are
simply ``NaN`` (no ground truth).  Fleets written with the retired npz
trace format raise ``ValueError`` on open; re-export or re-ingest them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Literal

import numpy as np

from ..records import ColumnarBlock, column, register_block_type
from ..signals.timeseries import TimeSeries
from .source import BaseTraceSource, TraceSource

if TYPE_CHECKING:
    from .ingest import IngestStats

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
    "TRACE_FORMATS",
    "MeasuredDevice",
    "MeasuredParameters",
    "MeasuredPair",
    "MeasuredSourceSpec",
    "MeasuredFleetDataset",
    "TraceBlock",
    "export_traces",
]

#: Name of the manifest file inside a measured-fleet directory.
MANIFEST_NAME = "manifest.json"

#: Manifest format tag (bump on incompatible layout changes).
MANIFEST_FORMAT = "repro-measured-fleet/1"

#: Supported per-pair trace file formats.
TRACE_FORMATS: tuple[str, ...] = ("rcb", "csv")

#: Sub-directory holding the per-pair trace files.
_TRACE_DIR = "traces"


@dataclass(frozen=True)
class MeasuredDevice:
    """The device side of a measured pair: an opaque identifier."""

    device_id: str


@dataclass(frozen=True)
class MeasuredParameters:
    """Ground-truth stand-in for measured pairs.

    ``true_nyquist_rate`` is carried through from an exported synthetic
    fleet (so accuracy-vs-truth aggregations keep working on the round
    trip) and is ``NaN`` for genuinely measured traces.
    """

    true_nyquist_rate: float = float("nan")


@dataclass(frozen=True)
class MeasuredPair:
    """One recorded (metric, device) pair: manifest metadata + file address.

    Duck-types the synthetic :class:`~repro.telemetry.dataset.TracePair`
    surface the survey pipeline touches (``key``, ``device.device_id``,
    ``parameters.true_nyquist_rate``).
    """

    metric_name: str
    device: MeasuredDevice
    parameters: MeasuredParameters
    interval: float
    length: int
    file: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.metric_name, self.device.device_id)


@dataclass(frozen=True)
class MeasuredSourceSpec:
    """Picklable worker address of a measured fleet: its directory on disk."""

    directory: str

    def open(self) -> "MeasuredFleetDataset":
        return MeasuredFleetDataset(self.directory)


# ----------------------------------------------------------------------
# Per-pair trace file round trip
# ----------------------------------------------------------------------
@register_block_type
@dataclass(frozen=True)
class TraceBlock(ColumnarBlock):
    """One recorded trace as an rcb block: its samples plus a checksum.

    ``interval`` and ``start_time`` are exact ``repr`` floats.  ``crc32``
    covers the values' bytes and both scalars, so a flipped bit anywhere
    in the file that still parses is caught by :meth:`check`.
    """

    interval: str
    start_time: str
    crc32: str
    values: np.ndarray = column("float")

    @staticmethod
    def checksum(values: np.ndarray, interval: str, start_time: str) -> str:
        crc = zlib.crc32(np.ascontiguousarray(values, dtype="<f8").tobytes())
        return f"{zlib.crc32(f'{interval}|{start_time}'.encode(), crc):08x}"

    @classmethod
    def from_trace(cls, trace: TimeSeries) -> "TraceBlock":
        interval, start_time = repr(float(trace.interval)), repr(float(trace.start_time))
        return cls(interval=interval, start_time=start_time,
                   crc32=cls.checksum(trace.values, interval, start_time),
                   values=trace.values)

    def check(self, path: Path) -> tuple[np.ndarray, float, float]:
        """The verified ``(values, interval, start_time)``; ``ValueError`` naming ``path``."""
        expected = self.checksum(self.values, self.interval, self.start_time)
        if self.crc32 != expected:
            raise ValueError(f"corrupt trace file {path}: crc32 {self.crc32!r} does not "
                             f"match its contents ({expected!r})")
        return self.values, float(self.interval), float(self.start_time)


def _save_trace(path: Path, trace: TimeSeries, fmt: str) -> None:
    """Write one trace file in ``fmt`` (``rcb`` or ``csv``)."""
    if fmt == "rcb":
        TraceBlock.from_trace(trace).save_rcb(path)
        return
    times = trace.times()
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("timestamp", "value"))
        for index in range(len(trace)):
            writer.writerow((repr(float(times[index])), repr(float(trace.values[index]))))


def _load_trace(path: Path, fmt: str, interval: float) -> tuple[np.ndarray, float, float]:
    """One trace file's ``(values, interval, start_time)``.

    Any unreadable, truncated or checksum-failing file raises
    ``ValueError`` naming ``path``.  A csv file carries no interval of its
    own, so its timestamps are checked against ``interval`` instead.
    """
    try:
        if fmt == "rcb":
            return TraceBlock.load_rcb(path).check(path)
        return _load_trace_csv(path, interval)
    except (OSError, ValueError, IndexError) as error:
        raise ValueError(f"corrupt or truncated trace file {path}: {error}") from error


def _load_trace_csv(path: Path, interval: float) -> tuple[np.ndarray, float, float]:
    timestamps: list[float] = []
    values: list[float] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"trace file {path} is empty: missing "
                             "timestamp,value header")
        for row in reader:
            timestamps.append(float(row[0]))
            values.append(float(row[1]))
    times = np.asarray(timestamps, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"non-finite timestamp at row {int(np.argmin(np.isfinite(times))) + 1}")
    if len(times) >= 2:
        deltas = np.diff(times)
        if np.any(np.abs(deltas - interval) > 1e-6 * interval):
            raise ValueError(
                f"timestamp spacing ranges {deltas.min():g}..{deltas.max():g} s but the "
                f"manifest promises a regular {interval:g} s interval")
    start_time = float(times[0]) if len(times) else 0.0
    return np.asarray(values, dtype=np.float64), interval, start_time


# ----------------------------------------------------------------------
def export_traces(source: TraceSource, directory: Path | str,
                  fmt: Literal["rcb", "csv"] = "rcb") -> Path:
    """Write every trace of ``source`` to ``directory`` and return the manifest path.

    The manifest records the pairs in ``source.traces()`` order (grouped
    per metric), so a :class:`MeasuredFleetDataset` opened on the
    directory surveys byte-identically to the original source.  The
    directory must not already hold a measured fleet.
    """
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}; choose one of {TRACE_FORMATS}")
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists():
        raise ValueError(f"{directory} already holds a measured fleet "
                         f"({MANIFEST_NAME} exists); export needs a fresh directory")
    (directory / _TRACE_DIR).mkdir(parents=True, exist_ok=True)

    metrics: list[str] = []
    entries: list[dict] = []
    for index, (pair, trace) in enumerate(source.traces()):
        metric_name, device_id = pair.key
        if metric_name not in metrics:
            metrics.append(metric_name)
        file_name = f"{_TRACE_DIR}/pair-{index:05d}.{fmt}"
        _save_trace(directory / file_name, trace, fmt)
        parameters = getattr(pair, "parameters", None)
        true_rate = float(getattr(parameters, "true_nyquist_rate", float("nan")))
        entries.append({"metric": metric_name, "device": device_id,
                        "interval": trace.interval, "length": len(trace),
                        "true_nyquist_rate": true_rate, "file": file_name})

    manifest = {"format": MANIFEST_FORMAT, "trace_format": fmt,
                "trace_duration": source.trace_duration,
                "metrics": metrics, "pairs": entries}
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


class MeasuredFleetDataset(BaseTraceSource):
    """A directory of recorded per-pair traces, served as a :class:`TraceSource`.

    Opening the dataset reads only the manifest; trace files are loaded
    lazily per pair, so iterating a huge recorded fleet stays bounded by
    the survey's ``chunk_size`` exactly like the synthetic path.  Loading
    validates each file against its manifest entry (sample count,
    interval), so truncated or corrupted recordings fail loudly with the
    offending path instead of skewing the survey.
    """

    #: Run statistics attached by :func:`~repro.telemetry.ingest.ingest_dump`
    #: on the dataset it returns (``None`` for datasets opened from disk):
    #: how the run executed -- buffering peaks, spill traffic, worker
    #: fan-out -- which deliberately never lands in the manifest.
    ingest_stats: "IngestStats | None" = None

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ValueError(
                f"no {MANIFEST_NAME} under {self.directory}; not a measured-fleet "
                "directory (create one with FleetDataset.export() or "
                "'repro-monitor export-fleet')")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ValueError(f"corrupt manifest {manifest_path}: {error}") from error
        try:
            format_tag = manifest["format"]
            fmt = manifest["trace_format"]
            self._trace_duration = float(manifest["trace_duration"])
            self._metric_order = [str(name) for name in manifest["metrics"]]
            self._pairs = [
                MeasuredPair(metric_name=str(entry["metric"]),
                             device=MeasuredDevice(str(entry["device"])),
                             parameters=MeasuredParameters(
                                 float(entry.get("true_nyquist_rate", float("nan")))),
                             interval=float(entry["interval"]),
                             length=int(entry["length"]),
                             file=str(entry["file"]))
                for entry in manifest["pairs"]
            ]
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"corrupt manifest {manifest_path}: {error}") from error
        if format_tag != MANIFEST_FORMAT:
            raise ValueError(f"unsupported manifest format {format_tag!r} in "
                             f"{manifest_path} (expected {MANIFEST_FORMAT!r})")
        if fmt == "npz":
            raise ValueError(
                f"{manifest_path} describes npz trace files, which are no longer "
                "read; re-export the fleet ('repro-monitor export-fleet') or "
                "re-ingest its dump ('repro-monitor ingest') into a fresh directory")
        if fmt not in TRACE_FORMATS:
            raise ValueError(f"unknown trace format {fmt!r} in {manifest_path}")
        self.fmt: str = fmt
        # The survey iterates the 'metrics' list, so any pair whose metric is
        # not on it would be silently dropped -- reject such manifests (and
        # duplicates of a metric or a pair, which would survey pairs twice).
        metric_set = set(self._metric_order)
        if len(metric_set) != len(self._metric_order):
            raise ValueError(f"corrupt manifest {manifest_path}: "
                             "duplicate names in the 'metrics' list")
        seen: set[tuple[str, str]] = set()
        for pair in self._pairs:
            if pair.key in seen:
                raise ValueError(f"corrupt manifest {manifest_path}: pair {pair.key} "
                                 "is listed twice; surveys would count it twice")
            seen.add(pair.key)
        unlisted = {pair.metric_name for pair in self._pairs} - metric_set
        if unlisted:
            raise ValueError(
                f"corrupt manifest {manifest_path}: pairs reference metrics missing "
                f"from the 'metrics' list ({sorted(unlisted)}); surveys would "
                "silently drop those pairs")

    # ------------------------------------------------------------------
    @property
    def trace_duration(self) -> float:
        return self._trace_duration

    def pairs(self) -> list[MeasuredPair]:
        return self._pairs

    def pairs_for_metric(self, metric_name: str) -> list[MeasuredPair]:
        return [pair for pair in self._pairs if pair.metric_name == metric_name]

    def metric_names(self) -> list[str]:
        return list(self._metric_order)

    def worker_spec(self) -> MeasuredSourceSpec:
        return MeasuredSourceSpec(str(self.directory))

    def pair_content_token(self, pair: MeasuredPair) -> str:
        """Identity of one recorded trace: a sha256 over its file bytes.

        Measured traces live in mutable files, so the content token hashes
        the bytes themselves (plus the manifest facts the loader validates
        against) -- re-recording a trace invalidates every cached record
        built from it, while renaming the fleet directory does not.
        """
        path = self.directory / pair.file
        digest = hashlib.sha256()
        try:
            with path.open("rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(chunk)
        except OSError as error:
            raise ValueError(
                f"corrupt or truncated trace file {path}: {error}") from error
        return (f"{pair.metric_name}|{pair.device.device_id}|{pair.file}|"
                f"{pair.interval!r}|{pair.length}|sha256:{digest.hexdigest()}")

    # ------------------------------------------------------------------
    def load(self, pair: MeasuredPair) -> TimeSeries:
        """Read one pair's recorded trace, validated against the manifest."""
        path = self.directory / pair.file
        values, file_interval, start_time = _load_trace(path, self.fmt, pair.interval)
        if values.ndim != 1 or values.shape[0] != pair.length:
            raise ValueError(
                f"trace file {path} holds {values.shape} samples but the manifest "
                f"promises {pair.length}; the recording is truncated or corrupt")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"trace file {path} holds a non-finite value at sample "
                             f"{int(np.argmin(np.isfinite(values)))}")
        if file_interval != pair.interval:
            raise ValueError(
                f"trace file {path} was recorded at interval {file_interval} s but the "
                f"manifest promises {pair.interval} s")
        return TimeSeries(values, pair.interval, start_time=start_time,
                          name=f"{pair.metric_name}@{pair.device.device_id}")
