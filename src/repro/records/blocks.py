"""Column-spec-driven block serialisation and the block-type registry.

A block class participates by subclassing :class:`ColumnarBlock` with a
:class:`BlockSchema` (``_SCHEMA``) describing its block-level scalars and
per-row columns -- the schema drives one shared implementation of the
``save_rcb``/``load_rcb`` round trip, the ``sniff_rcb`` classmethod a
spill directory is re-opened with, and the dtype/shape validation of
``__post_init__`` -- and by registering via :func:`register_block_type`.
The first schema column doubles as the block's row counter (the existing
block types lead with ``device_ids``), so adding a new record-producing
pipeline is a schema declaration plus whatever view/constructor helpers
it wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Iterator, Literal, Mapping, Self, Sequence

import numpy as np

__all__ = [
    "ColumnSpec",
    "ScalarSpec",
    "BlockSchema",
    "ColumnarBlock",
    "FailureRecord",
    "FailureRecordBlock",
    "register_block_type",
    "registered_block_types",
]


# ----------------------------------------------------------------------
# Column-spec-driven block serialisation
# ----------------------------------------------------------------------
#: Supported column kinds and their numpy dtypes.
_COLUMN_DTYPES = {
    "float": np.float64,
    "int": np.int64,
    "int8": np.int8,
    "bool": bool,
    "str": np.str_,
}


@dataclass(frozen=True)
class ColumnSpec:
    """One per-row column of a columnar record block; ``kind`` selects the dtype."""

    name: str
    kind: Literal["float", "int", "int8", "bool", "str"]

    def __post_init__(self) -> None:
        if self.kind not in _COLUMN_DTYPES:
            raise ValueError(f"unknown column kind {self.kind!r}; "
                             f"choose one of {sorted(_COLUMN_DTYPES)}")

    @property
    def dtype(self) -> type:
        return _COLUMN_DTYPES[self.kind]


@dataclass(frozen=True)
class ScalarSpec:
    """One block-level string scalar (metric name, policy name, ...).

    The rcb header carries scalars in its JSON ``scalars`` mapping, so
    zero-row blocks round-trip without losing them.
    """

    name: str


@dataclass(frozen=True)
class BlockSchema:
    """Declarative layout of one columnar block type.

    An rcb header's members are the scalars followed by the columns, by
    ``name``.  The first column is the reference every other column's row
    count is validated against, and gives the block its length.
    """

    scalars: tuple[ScalarSpec, ...]
    columns: tuple[ColumnSpec, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("a block schema needs at least one column")
        names = [spec.name for spec in self.scalars] + [spec.name for spec in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in block schema: {names}")

    @property
    def member_names(self) -> tuple[str, ...]:
        return (*(spec.name for spec in self.scalars),
                *(spec.name for spec in self.columns))


class ColumnarBlock:
    """Shared machinery of every columnar record block (mixin).

    Subclasses are frozen dataclasses whose fields are the schema's
    scalars (strings) followed by its columns (1-D arrays); ``_SCHEMA``
    drives validation, the rcb round trip and spill-file sniffing.
    Blocks loaded from ``.rcb`` files hold read-only zero-copy views of
    one read buffer per file, and keep no file descriptor open.
    """

    _SCHEMA: ClassVar[BlockSchema]

    def __post_init__(self) -> None:
        schema = self._SCHEMA
        for spec in schema.columns:
            object.__setattr__(self, spec.name,
                               np.asarray(getattr(self, spec.name), dtype=spec.dtype))
        rows = getattr(self, schema.columns[0].name).shape[0]
        for spec in schema.columns:
            array = getattr(self, spec.name)
            if array.ndim != 1 or array.shape[0] != rows:
                raise ValueError(f"column {spec.name!r} must be 1-D with {rows} rows, "
                                 f"got shape {array.shape}")

    def __len__(self) -> int:
        return int(getattr(self, self._SCHEMA.columns[0].name).shape[0])

    # ------------------------- disk round trip -------------------------
    def save_rcb(self, path: Path) -> None:
        """Write the block as one ``.rcb`` file."""
        from .rcb import write_rcb
        write_rcb(self, path)

    @classmethod
    def load_rcb(cls, path: Path) -> Self:
        """Load an ``.rcb`` file with one read; columns are zero-copy views."""
        from .rcb import read_rcb
        return read_rcb(cls, path)

    # ---------------------- spill-type sniffing ------------------------
    @classmethod
    def sniff_rcb(cls, header: Mapping[str, Any]) -> bool:
        """True when a parsed rcb header describes exactly this schema."""
        members = (set(header.get("scalars", {}))
                   | {column["name"] for column in header.get("columns", ())})
        return members == set(cls._SCHEMA.member_names)


#: Block classes that spill files may contain, in registration order.
#: Populated by :func:`register_block_type` when the defining modules are
#: imported (``repro``'s package init imports them all).
_BLOCK_TYPES: list[type] = []


def register_block_type(cls: type) -> type:
    """Class decorator: make ``cls`` discoverable when re-opening spill files."""
    if cls not in _BLOCK_TYPES:
        _BLOCK_TYPES.append(cls)
    return cls


def registered_block_types() -> Sequence[type]:
    """The registered block classes (mainly for diagnostics and tests)."""
    return tuple(_BLOCK_TYPES)


def _ensure_registry() -> None:
    """Import the built-in block-type modules so sniffing can see them.

    ``repro.records`` deliberately does not import the block modules at
    module level (they import *this* package); the lazy import here only
    runs when a caller re-opens a spill directory without naming a type.
    """
    from ..analysis import survey as _survey  # noqa: F401
    from ..pipeline import evaluation as _evaluation  # noqa: F401


# ----------------------------------------------------------------------
# Quarantine failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailureRecord:
    """One quarantined unit of pipeline work (a pair, or a dump line).

    ``stage`` names the pipeline step that failed (``"trace"``,
    ``"estimate"``, ``"evaluate"``, ``"parse"``); ``provenance`` pins the
    failing input (trace file path, ``dump.jsonl:LINE``, batch spec) so a
    quarantined run can be triaged without re-running it.
    """

    metric_name: str
    device_id: str
    stage: str
    error_type: str
    message: str
    provenance: str

    @classmethod
    def from_pair(cls, pair: Any, metric_name: str, stage: str, error: Exception,
                  position: int) -> Self:
        """Build the failure row for one (metric, device) pair.

        ``position`` is the pair's index in its metric's pair list (the
        slice address the batch specs use); pairs that carry a trace file
        (measured fleets) get it appended to the provenance.
        """
        provenance = f"{metric_name}[{position}]"
        file = getattr(pair, "file", None)
        if file:
            provenance = f"{provenance} {file}"
        return cls(metric_name=metric_name, device_id=pair.device.device_id,
                   stage=stage, error_type=type(error).__name__,
                   message=str(error), provenance=provenance)


@register_block_type
@dataclass(frozen=True)
class FailureRecordBlock(ColumnarBlock):
    """Columnar chunk of quarantined failures, one row per failed unit.

    Flows through the same :class:`~repro.records.RecordSink` machinery
    as the outcome blocks (quarantined runs spill failures next to their
    records), so it follows the sink conventions: ``device_ids`` leads
    the schema and is the row counter of spill files.
    """

    device_ids: np.ndarray
    metric_names: np.ndarray
    stages: np.ndarray
    error_types: np.ndarray
    messages: np.ndarray
    provenances: np.ndarray

    _SCHEMA: ClassVar[BlockSchema] = BlockSchema(
        scalars=(),
        columns=(
            ColumnSpec("device_ids", "str"),
            ColumnSpec("metric_names", "str"),
            ColumnSpec("stages", "str"),
            ColumnSpec("error_types", "str"),
            ColumnSpec("messages", "str"),
            ColumnSpec("provenances", "str"),
        ),
    )

    @classmethod
    def from_failures(cls, failures: Sequence[FailureRecord]) -> Self:
        """Pack an ordered batch of failures into one columnar block."""
        return cls(
            device_ids=np.array([f.device_id for f in failures], dtype=np.str_),
            metric_names=np.array([f.metric_name for f in failures], dtype=np.str_),
            stages=np.array([f.stage for f in failures], dtype=np.str_),
            error_types=np.array([f.error_type for f in failures], dtype=np.str_),
            messages=np.array([f.message for f in failures], dtype=np.str_),
            provenances=np.array([f.provenance for f in failures], dtype=np.str_),
        )

    def failures(self) -> Iterator[FailureRecord]:
        """Stream the rows back as :class:`FailureRecord` views."""
        for index in range(len(self)):
            yield FailureRecord(
                metric_name=str(self.metric_names[index]),
                device_id=str(self.device_ids[index]),
                stage=str(self.stages[index]),
                error_type=str(self.error_types[index]),
                message=str(self.messages[index]),
                provenance=str(self.provenances[index]),
            )
