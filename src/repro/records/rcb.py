"""The ``.rcb`` columnar block format.

An rcb file is a self-describing, aligned serialisation of one
:class:`~repro.records.ColumnarBlock`:

``````
offset 0    magic  b"RCB1"
offset 4    uint32 little-endian header length H
offset 8    UTF-8 JSON header (H bytes, sorted keys):
              {"block_type": "RecordBlock",
               "columns": [{"dtype": "<f8", "name": ..., "nbytes": ...,
                            "offset": ...}, ...],
               "data_bytes": ..., "format": "rcb/1", "rows": ...,
               "scalars": {"metric_name": ...}}
data_start  = 8 + H rounded up to the next 64-byte boundary
            zero padding up to data_start, then the raw little-endian
            column payloads; each column's ``offset`` is relative to
            data_start and 64-byte aligned, ``nbytes`` == rows * itemsize.
``````

A load is one open, one header parse and one read: the data section
lands in a single immutable buffer and every column is a read-only
zero-copy view into it (``np.asarray`` onto the schema dtype shares
that memory, pinned by tests).  No descriptor or mapping outlives the
call, so a process can hold any number of loaded blocks.  Each file is
one block of at most ``chunk_size`` rows and every consumer reads every
column, so lazy paging would save nothing.  Writes are deterministic
byte for byte (sorted JSON keys, zero padding), which is what lets CI
compare a warm store rerun to a cold run with ``cmp``.  Any structural
damage -- bad magic, unparseable header, payload size mismatch, a column
stored under another dtype kind than its schema's -- raises
``ValueError`` naming the file.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

__all__ = ["RCB_MAGIC", "RCB_FORMAT", "write_rcb", "read_rcb", "read_rcb_header",
           "block_type_of", "load_rcb_any"]

#: Leading magic bytes of every rcb file.
RCB_MAGIC = b"RCB1"

#: Format tag carried in the JSON header.
RCB_FORMAT = "rcb/1"

#: Column payloads (and the data section itself) start on this alignment,
#: so column views are cache-line aligned relative to the data section.
_ALIGN = 64

#: Hard ceiling on the JSON header, to reject garbage length prefixes
#: before attempting a huge read.
_MAX_HEADER_BYTES = 1 << 24


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _corrupt(path: Path, reason: str) -> ValueError:
    return ValueError(f"corrupt or truncated record file {path}: {reason}")


def _little_endian(array: np.ndarray) -> np.ndarray:
    """The array with a little-endian (or byte-order-free) dtype."""
    if array.dtype.byteorder == ">":
        return array.astype(array.dtype.newbyteorder("<"))
    return array


def write_rcb(block: Any, path: Path) -> None:
    """Serialise ``block`` to ``path`` in the rcb layout above."""
    schema = block._SCHEMA
    arrays = []
    columns = []
    offset = 0
    for spec in schema.columns:
        array = _little_endian(np.ascontiguousarray(getattr(block, spec.name)))
        offset = _align(offset)
        columns.append({"name": spec.name, "dtype": array.dtype.str,
                        "offset": offset, "nbytes": int(array.nbytes)})
        arrays.append((offset, array))
        offset += array.nbytes
    header = {
        "format": RCB_FORMAT,
        "block_type": type(block).__name__,
        "rows": len(block),
        "scalars": {spec.name: str(getattr(block, spec.name))
                    for spec in schema.scalars},
        "columns": columns,
        "data_bytes": offset,
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    data_start = _align(8 + len(header_bytes))
    with Path(path).open("wb") as handle:
        handle.write(RCB_MAGIC)
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        handle.write(b"\0" * (data_start - 8 - len(header_bytes)))
        for column_offset, array in arrays:
            handle.seek(data_start + column_offset)
            handle.write(array.tobytes())
        # A trailing zero-row column leaves the file short of data_bytes;
        # pad so the size check on load stays exact.
        handle.truncate(data_start + header["data_bytes"])


def _read_header(path: Path, handle: BinaryIO) -> tuple[dict, int]:
    """Parse and validate the header; return it with the data offset."""
    prefix = handle.read(8)
    if len(prefix) < 8 or prefix[:4] != RCB_MAGIC:
        raise _corrupt(path, "missing RCB1 magic")
    (header_length,) = struct.unpack("<I", prefix[4:8])
    if header_length > _MAX_HEADER_BYTES:
        raise _corrupt(path, f"implausible header length {header_length}")
    header_bytes = handle.read(header_length)
    if len(header_bytes) < header_length:
        raise _corrupt(path, "file ends inside the header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _corrupt(path, f"unreadable header: {error}") from error
    if not isinstance(header, dict) or header.get("format") != RCB_FORMAT:
        raise _corrupt(path, f"unknown format tag {header!r:.80}")
    for key in ("block_type", "rows", "scalars", "columns", "data_bytes"):
        if key not in header:
            raise _corrupt(path, f"header is missing {key!r}")
    if not isinstance(header["data_bytes"], int) or header["data_bytes"] < 0:
        raise _corrupt(path, f"bad data size {header['data_bytes']!r}")
    data_start = _align(8 + header_length)
    size = os.fstat(handle.fileno()).st_size
    if size != data_start + header["data_bytes"]:
        raise _corrupt(path, f"expected {data_start + header['data_bytes']} bytes, "
                             f"found {size}")
    rows = header["rows"]
    if not isinstance(rows, int) or rows < 0:
        raise _corrupt(path, f"bad row count {rows!r}")
    if not isinstance(header["columns"], list) or not isinstance(header["scalars"], dict):
        raise _corrupt(path, "'columns' must be a list and 'scalars' a mapping")
    for column in header["columns"]:
        try:
            name = column["name"]
            # A garbled dtype string can make numpy's parser raise
            # SyntaxError as well as TypeError.
            dtype = np.dtype(column["dtype"])
            nbytes, offset = column["nbytes"], column["offset"]
            wrong_size = nbytes != rows * dtype.itemsize
            outside = offset < 0 or offset + nbytes > header["data_bytes"]
        except (TypeError, KeyError, SyntaxError) as error:
            raise _corrupt(path, f"bad column descriptor: {error}") from error
        if dtype.byteorder == ">":
            raise _corrupt(path, f"column {name!r} is big-endian")
        if wrong_size:
            raise _corrupt(path, f"column {name!r} payload is {nbytes} bytes, "
                                 f"expected {rows * dtype.itemsize}")
        if outside:
            raise _corrupt(path, f"column {name!r} lies outside the data section")
    return header, data_start


def read_rcb_header(path: Path) -> dict:
    """Parse (and structurally validate) just the JSON header of ``path``.

    Cheap -- one small read plus an ``fstat`` -- so sinks use it to count rows
    and read block types without touching the column payloads.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            header, _ = _read_header(path, handle)
    except OSError as error:
        raise _corrupt(path, str(error)) from error
    return header


def _read_file(path: Path) -> tuple[dict, bytes]:
    """The validated header of ``path`` and its data section, in one read."""
    try:
        with path.open("rb") as handle:
            header, data_start = _read_header(path, handle)
            handle.seek(data_start)
            data = handle.read(header["data_bytes"])
    except OSError as error:
        raise _corrupt(path, str(error)) from error
    if len(data) != header["data_bytes"]:
        raise _corrupt(path, f"read {len(data)} of {header['data_bytes']} data bytes")
    return header, data


def _block_from(cls: type, path: Path, header: dict, data: bytes) -> Any:
    """Build a ``cls`` block whose columns are read-only views of ``data``."""
    schema = cls._SCHEMA
    by_name = {column["name"]: column for column in header["columns"]}
    fields: dict[str, Any] = {}
    for spec in schema.scalars:
        if spec.name not in header["scalars"]:
            raise _corrupt(path, f"missing scalar {spec.name!r}")
        fields[spec.name] = str(header["scalars"][spec.name])
    rows = header["rows"]
    for spec in schema.columns:
        column = by_name.get(spec.name)
        if column is None:
            raise _corrupt(path, f"missing column {spec.name!r}")
        dtype = np.dtype(column["dtype"])
        if dtype.kind != np.dtype(spec.dtype).kind:
            raise _corrupt(path, f"column {spec.name!r} is stored as {dtype.str}, "
                                 f"not as {spec.kind}")
        if column["nbytes"] == 0:
            fields[spec.name] = np.empty(0, dtype=dtype)
        else:
            fields[spec.name] = np.frombuffer(data, dtype=dtype, count=rows,
                                              offset=column["offset"])
    return cls(**fields)


def read_rcb(cls: type, path: Path) -> Any:
    """Load ``path`` as an instance of ``cls`` (one read, zero-copy columns)."""
    path = Path(path)
    return _block_from(cls, path, *_read_file(path))


def block_type_of(path: Path, header: dict) -> type:
    """The registered block class a parsed rcb header names in ``block_type``.

    Raises ``ValueError`` naming ``path`` when no registered class has
    that name.
    """
    from .blocks import registered_block_types
    block_types = registered_block_types()
    for cls in block_types:
        if cls.__name__ == header["block_type"]:
            return cls
    raise ValueError(
        f"spill file {path} has block type {header['block_type']!r}, which does not "
        f"match any registered record block type ({[cls.__name__ for cls in block_types]}); "
        "the file is corrupt or from an incompatible version")


def load_rcb_any(path: Path) -> Any:
    """Load an rcb file whose block type is not known in advance.

    The class comes from the one parsed header (:func:`block_type_of`).
    """
    path = Path(path)
    header, data = _read_file(path)
    return _block_from(block_type_of(path, header), path, header, data)
