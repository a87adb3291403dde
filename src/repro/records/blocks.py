"""Dataclass-driven block serialisation and the block-type registry.

A block class participates by being a frozen dataclass that subclasses
:class:`ColumnarBlock` and is decorated with :func:`register_block_type`.
Its fields are its only layout declaration: plain ``str`` fields are
block-level scalars and ``column(kind)`` fields are per-row columns.
Registration derives ``_SCHEMA`` from the fields (scalars, then columns,
each in declaration order), and that schema drives one shared
implementation of the ``save_rcb``/``load_rcb`` round trip and the
dtype/shape validation of ``__post_init__``.  The first column doubles as
the block's row counter (the existing block types lead with
``device_ids``), so adding a new record-producing pipeline is a
dataclass declaration plus whatever view/constructor helpers it wants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Iterator, Literal, Self, Sequence, TypeVar

import numpy as np

__all__ = [
    "column",
    "ColumnarBlock",
    "FailureRecord",
    "FailureRecordBlock",
    "register_block_type",
    "registered_block_types",
]


# ----------------------------------------------------------------------
# Dataclass-driven block serialisation
# ----------------------------------------------------------------------
ColumnKind = Literal["float", "int", "int8", "bool", "str"]

#: Supported column kinds and their numpy dtypes.
_COLUMN_DTYPES = {
    "float": np.float64,
    "int": np.int64,
    "int8": np.int8,
    "bool": bool,
    "str": np.str_,
}


def column(kind: ColumnKind) -> Any:
    """A per-row column field of a block dataclass; ``kind`` selects the dtype.

    Written ``nrmse: np.ndarray = column("float")``.  The field carries
    its kind in its metadata, where :func:`register_block_type` reads it.
    """
    if kind not in _COLUMN_DTYPES:
        raise ValueError(f"unknown column kind {kind!r}; "
                         f"choose one of {sorted(_COLUMN_DTYPES)}")
    return dataclasses.field(metadata={"kind": kind})


@dataclass(frozen=True)
class ColumnSpec:
    """One per-row column of a registered block (derived from its field)."""

    name: str
    kind: ColumnKind

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
    """Layout of one registered block type, derived from its dataclass fields.

    An rcb header's members are the scalars followed by the columns, by
    ``name``.  The first column is the reference every other column's row
    count is validated against, and gives the block its length.
    """

    scalars: tuple[ScalarSpec, ...]
    columns: tuple[ColumnSpec, ...]


class ColumnarBlock:
    """Shared machinery of every columnar record block (mixin).

    Subclasses are frozen dataclasses registered with
    :func:`register_block_type`: their ``str`` fields are block-level
    scalars and their ``column(kind)`` fields 1-D arrays.  The derived
    ``_SCHEMA`` drives validation and the rcb round trip.  Blocks loaded
    from ``.rcb`` files hold read-only zero-copy views of one read buffer
    per file, and keep no file descriptor open.
    """

    _SCHEMA: ClassVar[BlockSchema]

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # Only reached by subclasses that are not dataclasses (a dataclass
        # generates its own __init__).
        raise TypeError(f"{type(self).__name__} is not a dataclass; block types are "
                        "frozen dataclasses decorated with @register_block_type")

    def __post_init__(self) -> None:
        schema = type(self).__dict__.get("_SCHEMA")
        if schema is None:
            raise TypeError(f"{type(self).__name__} is not a registered block type; "
                            "decorate it with @register_block_type")
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


#: Block classes that spill files may contain, in registration order.
#: Populated by :func:`register_block_type` when the defining modules are
#: imported (``repro``'s package init imports them all).
_BLOCK_TYPES: list[type[ColumnarBlock]] = []

_BlockT = TypeVar("_BlockT", bound=ColumnarBlock)


def register_block_type(cls: type[_BlockT]) -> type[_BlockT]:
    """Class decorator: derive ``cls._SCHEMA`` from its fields and make
    ``cls`` the block type that rcb headers naming it load as.

    ``cls`` must be a :class:`ColumnarBlock` dataclass with at least one
    ``column(kind)`` field; every other field is a ``str`` scalar.
    """
    cls._SCHEMA = _derived_schema(cls)
    if cls not in _BLOCK_TYPES:
        _BLOCK_TYPES.append(cls)
    return cls


def _derived_schema(cls: type) -> BlockSchema:
    """The scalars, then the columns, of a block dataclass, in field order."""
    if not (isinstance(cls, type) and issubclass(cls, ColumnarBlock)
            and dataclasses.is_dataclass(cls)):
        raise TypeError(f"register_block_type needs a ColumnarBlock dataclass, got {cls!r}")
    fields = dataclasses.fields(cls)
    columns = tuple(ColumnSpec(field.name, field.metadata["kind"])
                    for field in fields if "kind" in field.metadata)
    if not columns:
        raise ValueError(f"register_block_type: {cls.__name__} declares no column(...) field")
    return BlockSchema(scalars=tuple(ScalarSpec(field.name) for field in fields
                                     if "kind" not in field.metadata),
                       columns=columns)


def registered_block_types() -> Sequence[type[ColumnarBlock]]:
    """The registered block classes, in registration order.

    Imports the built-in block modules first: ``repro.records``
    deliberately does not import them at module level (they import *this*
    package), so a caller re-opening a spill directory without naming a
    type still sees every built-in block type.
    """
    from ..analysis import survey as _survey  # noqa: F401
    from ..pipeline import evaluation as _evaluation  # noqa: F401
    return tuple(_BLOCK_TYPES)


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

    device_ids: np.ndarray = column("str")
    metric_names: np.ndarray = column("str")
    stages: np.ndarray = column("str")
    error_types: np.ndarray = column("str")
    messages: np.ndarray = column("str")
    provenances: np.ndarray = column("str")

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
