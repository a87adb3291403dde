"""Record sinks: the streaming destinations for columnar record blocks.

:class:`MemoryRecordSink` keeps blocks in RAM; :class:`SpillingRecordSink`
streams each block to one ``records-NNNNN.rcb`` file so memory stays
bounded by a single block regardless of fleet size, and re-opens an
existing directory (resuming its row count) for later aggregation.  Spill
files are ordered by their *numeric* index, not lexicographically, so a
directory that has grown past ``records-00009`` (or holds hand-named
unpadded files) streams back in append order.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterator

from .blocks import ColumnarBlock
from .rcb import block_type_of, read_rcb_header

__all__ = ["RecordSink", "MemoryRecordSink", "SpillingRecordSink"]

#: The numeric index embedded in a spill file name.
_SPILL_INDEX = re.compile(r"records-(\d+)\.")


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

    Each appended block becomes one ``records-NNNNN.rcb`` file under
    ``directory`` (one read per file on the way back -- blocks stream
    back as zero-copy views); aggregations stream the files back one at a
    time, so neither writing nor reading ever holds more than a single
    ``chunk_size`` block in memory.  Opening a sink on a directory that
    already contains record files resumes from them, which is how a
    spilled run is re-opened in a later process (e.g.
    ``SurveyResult(sink=SpillingRecordSink(path))`` or
    ``PolicySurveyResult(sink=SpillingRecordSink(path))``).  A directory
    holding leftover ``records-*.npz`` or ``records-*.csv`` files (spill
    formats that are no longer read) raises ``ValueError``.

    The block class the sink stores is inferred: from the first appended
    block on a fresh directory, or from the header of the first existing
    spill file on re-open -- so one sink class serves every registered
    block type.
    """

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for retired in ("npz", "csv"):
            if any(self.directory.glob(f"records-*.{retired}")):
                raise ValueError(f"spill directory {self.directory} holds "
                                 f"records-*.{retired} files; {retired} spill is no "
                                 "longer read -- re-run into a fresh directory")
        self._block_type: type | None = None
        self._files: list[Path] = sorted(self.directory.glob("records-*.rcb"),
                                         key=_spill_order)
        self._next_index = 1 + max((_spill_order(path)[0] for path in self._files),
                                   default=-1)
        # rcb headers carry the row count outright, so re-opening a
        # 100k+-row spill directory reads no column.
        self._rows = sum(int(read_rcb_header(path)["rows"]) for path in self._files)

    # ------------------------------------------------------------------
    def _resolve_type(self) -> type:
        if self._block_type is None:
            if not self._files:
                raise ValueError(f"empty spill directory {self.directory}: "
                                 "append a block first")
            first = self._files[0]
            self._block_type = block_type_of(first, read_rcb_header(first))
        return self._block_type

    def append(self, block: ColumnarBlock) -> None:
        if self._block_type is None and not self._files:
            self._block_type = type(block)
        block_type = self._resolve_type()
        if not isinstance(block, block_type):
            raise ValueError(
                f"sink at {self.directory} stores {block_type.__name__} blocks; "
                f"cannot append a {type(block).__name__}")
        path = self.directory / f"records-{self._next_index:05d}.rcb"
        block.save_rcb(path)
        self._next_index += 1
        self._files.append(path)
        self._rows += len(block)

    def blocks(self) -> Iterator:
        for path in self._files:
            yield self._resolve_type().load_rcb(path)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def files(self) -> list[Path]:
        """The spill files written so far, in append order."""
        return list(self._files)
