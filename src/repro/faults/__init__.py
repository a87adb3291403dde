"""Deterministic fault injection + fault-isolated execution (the chaos layer).

Two halves, both built for reproducibility:

* :mod:`repro.faults.plan` -- :class:`FaultPlan`, a seeded, picklable
  description of *which* units of work fail and *how*: corrupt or
  truncated trace files, IO errors on the first N opens, counter wraps,
  device reboots and blackout windows mid-trace, malformed dump lines,
  and worker crashes on chosen batch slices.  Pair assignment is a pure
  function of ``(seed, metric, device)``, so every process -- sequential
  run, each pool worker, the test re-checking coverage -- agrees on the
  fault set without coordination.
* :mod:`repro.faults.inject` -- wrappers that apply a plan:
  :class:`FaultInjectingTraceSource` (any :class:`TraceSource`, faults
  injected at ``load``/``trace_batches`` time, with a picklable worker
  spec so multi-worker surveys inject identically) and
  :func:`corrupt_dump_lines` (mangle a telemetry dump).
* :mod:`repro.faults.execution` -- the fault-isolation half:
  :data:`MAX_ATTEMPTS` and :func:`retry_delay` (one fixed retry
  budget, deterministic backoff),
  :class:`BatchExecutionError` (picklable, batch-spec-naming wrapper for
  worker-side failures) and :func:`run_batch_tasks`, the process-pool
  driver both surveys use, which retries retryable batches and rebuilds
  a broken pool so a crashed worker costs one batch retry, not the run.
"""

from .execution import (MAX_ATTEMPTS, RETRYABLE_EXCEPTIONS, BatchExecutionError,
                        retry_delay, run_batch_tasks)
from .inject import (FaultInjectingSourceSpec, FaultInjectingTraceSource,
                     corrupt_dump_lines)
from .plan import (DATA_FAULT_KINDS, FAULT_KINDS, RAISING_FAULT_KINDS, FaultPlan,
                   stable_digest)

__all__ = [
    "FAULT_KINDS",
    "RAISING_FAULT_KINDS",
    "DATA_FAULT_KINDS",
    "FaultPlan",
    "stable_digest",
    "FaultInjectingSourceSpec",
    "FaultInjectingTraceSource",
    "corrupt_dump_lines",
    "MAX_ATTEMPTS",
    "retry_delay",
    "BatchExecutionError",
    "RETRYABLE_EXCEPTIONS",
    "run_batch_tasks",
]
