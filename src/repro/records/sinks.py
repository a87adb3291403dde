"""Record sinks: the streaming destinations for columnar record blocks.

:class:`MemoryRecordSink` keeps blocks in RAM; :class:`SpillingRecordSink`
streams each block to one ``records-NNNNN.npz``/``.csv``/``.rcb`` file so
memory stays bounded by a single block regardless of fleet size, and
re-opens an existing directory (resuming its row count) for later
aggregation.  Spill files are ordered by their *numeric* index, not
lexicographically, so a directory that has grown past ``records-00009``
(or holds hand-named unpadded files) streams back in append order.
"""

from __future__ import annotations

import csv
import re
import zipfile
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Literal

import numpy as np

from .blocks import _BLOCK_TYPES, ColumnarBlock, _ensure_registry
from .rcb import read_rcb_header

__all__ = ["RecordSink", "MemoryRecordSink", "SpillingRecordSink"]

#: The numeric index embedded in a spill file name.
_SPILL_INDEX = re.compile(r"records-(\d+)\.")


@contextmanager
def _open_npz(path: Path) -> Iterator[Any]:
    """Open one npz spill file; a corrupt one raises ``ValueError`` naming it.

    The handle is ours, not ``np.load``'s, so it closes even when numpy
    rejects a truncated archive.
    """
    try:
        with path.open("rb") as handle, np.load(handle) as data:
            yield data
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile) as error:
        raise ValueError(f"corrupt or truncated spill file {path}: {error}") from error


def _spill_order(path: Path) -> tuple[int, str]:
    """Sort key: numeric index first (``records-10`` after ``records-2``)."""
    match = _SPILL_INDEX.match(path.name)
    return (int(match.group(1)) if match else -1, path.name)


class RecordSink(ABC):
    """Streaming destination for columnar record blocks.

    The producing pipeline pushes blocks as it creates them and the
    aggregations pull them back with :meth:`blocks`; a sink therefore
    decides the memory/durability trade-off (RAM vs disk) without the
    rest of the pipeline caring.
    """

    @abstractmethod
    def append(self, block: ColumnarBlock) -> None:
        """Accept the next chunk of outcome rows."""

    @abstractmethod
    def blocks(self) -> Iterator:
        """Stream the stored chunks back in append order."""

    @property
    @abstractmethod
    def rows(self) -> int:
        """Total rows stored so far."""


class MemoryRecordSink(RecordSink):
    """Keeps every block in RAM (the default for paper-scale runs)."""

    def __init__(self) -> None:
        self._blocks: list = []
        self._rows = 0

    def append(self, block: ColumnarBlock) -> None:
        self._blocks.append(block)
        self._rows += len(block)

    def blocks(self) -> Iterator:
        return iter(self._blocks)

    @property
    def rows(self) -> int:
        return self._rows


class SpillingRecordSink(RecordSink):
    """Streams every block straight to disk; memory stays O(one block).

    Each appended block becomes one ``records-NNNNN.npz`` (``.csv``,
    ``.rcb``) file under ``directory``; aggregations stream the files
    back one at a time, so neither writing nor reading ever holds more
    than a single ``chunk_size`` block in memory.  Opening a sink on a
    directory that already contains record files resumes from them, which
    is how a spilled run is re-opened in a later process (e.g.
    ``SurveyResult(sink=SpillingRecordSink(path))`` or
    ``PolicySurveyResult(sink=SpillingRecordSink(path))``).

    ``fmt`` picks the spill serialisation: ``"npz"`` (compressed, the
    default), ``"csv"`` (greppable), or ``"rcb"`` (one read per file --
    blocks stream back as zero-copy views, the fastest re-open).  ``fmt=None``
    infers it from the files already in the directory, defaulting to npz
    on a fresh one.

    ``block_type`` names the block class the sink stores.  When omitted it
    is inferred: from the first appended block on a fresh directory, or by
    sniffing the first existing spill file on re-open -- so one sink class
    serves every registered block type.
    """

    _FMTS = ("npz", "csv", "rcb")

    def __init__(self, directory: Path | str,
                 fmt: Literal["npz", "csv", "rcb"] | None = "npz",
                 block_type: type | None = None) -> None:
        if fmt is not None and fmt not in self._FMTS:
            raise ValueError(f"unknown spill format {fmt!r}; "
                             "choose 'npz', 'csv' or 'rcb'")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if fmt is None:
            fmt = self._sniff_fmt()
        self.fmt = fmt
        self._block_type = block_type
        self._files: list[Path] = sorted(self.directory.glob(f"records-*.{fmt}"),
                                         key=_spill_order)
        self._next_index = 1 + max((_spill_order(path)[0] for path in self._files),
                                   default=-1)
        self._rows = sum(self._count_rows(path) for path in self._files)

    def _sniff_fmt(self) -> str:
        """Infer the spill format from the directory's existing files."""
        for fmt in self._FMTS:
            if any(True for _ in self.directory.glob(f"records-*.{fmt}")):
                return fmt
        return "npz"

    # ------------------------------------------------------------------
    @property
    def block_type(self) -> type | None:
        """The block class this sink stores (None until known)."""
        return self._block_type

    def _sniff_type(self, path: Path) -> type:
        """Infer the block class of an existing spill file."""
        _ensure_registry()
        if self.fmt == "npz":
            with _open_npz(path) as data:
                members = tuple(data.files)
            for cls in _BLOCK_TYPES:
                if cls.sniff_npz(members):
                    return cls
        elif self.fmt == "rcb":
            header = read_rcb_header(path)
            for cls in _BLOCK_TYPES:
                if cls.__name__ == header["block_type"] or cls.sniff_rcb(header):
                    return cls
        else:
            with path.open() as handle:
                head = tuple(handle.readline() for _ in range(4))
            for cls in _BLOCK_TYPES:
                if cls.sniff_csv(head):
                    return cls
        raise ValueError(
            f"spill file {path} does not match any registered record block type "
            f"({[cls.__name__ for cls in _BLOCK_TYPES]}); the file is corrupt or "
            "from an incompatible version")

    def _resolve_type(self) -> type:
        if self._block_type is None:
            if not self._files:
                raise ValueError(
                    f"empty spill directory {self.directory} and no block_type given; "
                    "append a block first or pass block_type=")
            self._block_type = self._sniff_type(self._files[0])
        return self._block_type

    def _count_rows(self, path: Path) -> int:
        """Row count of one spill file without loading its full columns.

        npz members decompress lazily, so touching only ``device_ids``
        skips the wide float columns; rcb headers carry the row count
        outright; csv rows are counted by ``csv.reader`` past the leading
        comment lines (block-level scalars) and the header, because a
        quoted cell -- a quarantine message, say -- may span several
        physical lines.  Keeps re-opening a 100k+-row spill directory
        cheap.
        """
        if self.fmt == "npz":
            with _open_npz(path) as data:
                return int(data["device_ids"].shape[0])
        if self.fmt == "rcb":
            return int(read_rcb_header(path)["rows"])
        with path.open(newline="") as handle:
            while handle.readline().startswith("#"):  # scalar comments, then the header
                pass
            return sum(1 for _ in csv.reader(handle))

    def _load(self, path: Path) -> ColumnarBlock:
        cls = self._resolve_type()
        loader = getattr(cls, f"load_{self.fmt}")
        return loader(path)

    def append(self, block: ColumnarBlock) -> None:
        if self._block_type is None:
            self._block_type = self._sniff_type(self._files[0]) if self._files \
                else type(block)
        if not isinstance(block, self._block_type):
            raise ValueError(
                f"sink at {self.directory} stores {self._block_type.__name__} blocks; "
                f"cannot append a {type(block).__name__}")
        path = self.directory / f"records-{self._next_index:05d}.{self.fmt}"
        getattr(block, f"save_{self.fmt}")(path)
        self._next_index += 1
        self._files.append(path)
        self._rows += len(block)

    def blocks(self) -> Iterator:
        for path in self._files:
            yield self._load(path)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def files(self) -> list[Path]:
        """The spill files written so far, in append order."""
        return list(self._files)
