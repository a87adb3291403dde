"""Generic columnar record storage: sinks, block formats and the store.

The fleet pipelines produce *columnar blocks* -- struct-of-arrays chunks
of homogeneous outcome rows -- and stream them into a
:class:`RecordSink`.  The Nyquist survey's
:class:`~repro.analysis.survey.RecordBlock` and the policy survey's
:class:`~repro.pipeline.evaluation.PolicyRecordBlock` are two such block
types; this package holds the storage machinery they share, so a new
record-producing pipeline only has to define its block class.

Layout:

* :mod:`repro.records.blocks` -- dataclass-driven serialisation
  (:class:`ColumnarBlock`: a block's fields, scalars and
  :func:`column` arrays, are its only layout declaration), the
  quarantine failure records and the block-type registry.
* :mod:`repro.records.rcb` -- the ``.rcb`` binary block format: a load
  is one read, with columns as zero-copy views of that buffer; writes
  are deterministic byte for byte.  The record store keeps its blocks in
  it.
* :mod:`repro.records.sinks` -- :class:`MemoryRecordSink` and
  :class:`SpillingRecordSink` (one ``.rcb`` file per block, numerically
  ordered).
* :mod:`repro.records.store` -- :class:`RecordStore`, the
  content-addressed cache behind ``run_survey(..., store=...)``
  incremental reruns, keyed by :class:`PairFingerprint`.
"""

from .blocks import (ColumnarBlock, FailureRecord, FailureRecordBlock, column,
                     register_block_type, registered_block_types)
from .rcb import RCB_FORMAT, RCB_MAGIC, load_rcb_any, read_rcb_header
from .sinks import MemoryRecordSink, RecordSink, SpillingRecordSink
from .store import (STORE_SCHEMA_VERSION, PairFingerprint, RecordStore,
                    StoreVerification, fingerprint_slice)

__all__ = [
    "column",
    "ColumnarBlock",
    "FailureRecord",
    "FailureRecordBlock",
    "RecordSink",
    "MemoryRecordSink",
    "SpillingRecordSink",
    "register_block_type",
    "registered_block_types",
    "RCB_MAGIC",
    "RCB_FORMAT",
    "read_rcb_header",
    "load_rcb_any",
    "STORE_SCHEMA_VERSION",
    "PairFingerprint",
    "RecordStore",
    "StoreVerification",
    "fingerprint_slice",
]
