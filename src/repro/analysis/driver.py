"""The slice driver: one execution loop for both fleet surveys.

:func:`~repro.analysis.survey.run_survey` and
:func:`~repro.analysis.policy_survey.run_policy_survey` differ only in what
they compute from a :class:`~repro.telemetry.source.TraceBatch`.  Each
passes a small picklable :class:`SliceEvaluator` -- its store fingerprint
kind, its analysis-parameter token, its failure-stage label and an
``evaluate(metric_name, batch) -> blocks`` function -- and
:func:`run_slices` does everything else:

* **Slicing.**  Every metric's pair list is cut at ``chunk_size``
  boundaries (:func:`~repro.telemetry.source.batch_offsets`).  Every
  execution mode works on these same slices, so block boundaries -- and
  hence spill files -- are identical at any worker count, with or without
  a store or quarantine, even when one metric mixes (length, interval)
  shapes.
* **Store.**  With a :class:`~repro.records.RecordStore`, each slice is
  fingerprinted (:func:`~repro.records.fingerprint_slice`) and hits are
  served from its ``.rcb`` blocks (one read per file, no descriptor kept
  open); only misses are computed, then published.  Quarantined slices are never cached.
* **Execution.**  Misses run inline (``workers=1``) or on a process pool
  through :func:`~repro.faults.run_batch_tasks`.  Pool workers receive a
  picklable task (the source's ``worker_spec()``, the evaluator and the
  slice address), re-open the source once per process and return the
  slice's blocks through the pool's result pipe; the parent appends them
  and publishes them to the store exactly as an inline run does.
* **Failures.**  ``on_error="raise"`` propagates the first failure.
  ``"quarantine"`` retries transient (IO-shaped) failures within the
  :class:`~repro.faults.RetryPolicy` budget, then salvages the slice pair
  by pair: traces are loaded one at a time, loadable pairs are regrouped
  into equal-shape batches in pair order, and a group is re-evaluated row
  by row only if its evaluation raises.  Healthy rows stay byte-identical
  to a clean run; every failed pair becomes a
  :class:`~repro.records.FailureRecord`.
* **Order.**  Blocks are appended in slice order whatever the mix of
  hits, pooled results and salvages.

Both pipelines also share their result plumbing (:class:`SliceResult`:
the block and failure sinks, the store counters) and their entry-point
checks (:func:`check_run_options`).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Literal, Protocol, Sequence

import numpy as np

from ..faults.execution import (RETRYABLE_EXCEPTIONS, BatchExecutionError, RetryPolicy,
                                run_batch_tasks)
from ..records import (FailureRecord, FailureRecordBlock, MemoryRecordSink, RecordSink,
                       RecordStore, fingerprint_slice)
from ..telemetry.source import TraceBatch, TraceSource, WorkerSpec, batch_offsets

__all__ = ["OnError", "SliceEvaluator", "SliceResult", "check_run_options", "run_slices"]

#: Failure handling of the fleet pipelines: fail fast (the default, the
#: historical behaviour) or quarantine failing pairs as
#: :class:`~repro.records.FailureRecord` rows and finish the healthy ones.
OnError = Literal["raise", "quarantine"]


class SliceEvaluator(Protocol):
    """What one pipeline computes per trace batch; must pickle for workers."""

    @property
    def kind(self) -> str:
        """Store fingerprint kind (``"survey"`` / ``"policy"``); also names tasks."""

    @property
    def stage(self) -> str:
        """Failure-record stage of an ``evaluate`` error."""

    def params_token(self) -> str:
        """Analysis-parameter half of a slice fingerprint (store runs only)."""

    def evaluate(self, metric_name: str, batch: TraceBatch) -> list[Any]:
        """Columnar result blocks of one equal-shape batch."""


class SliceResult:
    """The sinks and counters a fleet-survey result shares; the driver writes here.

    Result blocks stream into ``sink`` and quarantined failures into
    ``failure_sink`` (both in memory unless a sink is passed).  A sink
    that already holds blocks -- a re-opened spill directory -- is
    adopted as is.  Subclasses add their aggregations on top and may
    extend :meth:`_note`, which sees every block once, in order.
    """

    def __init__(self, sink: RecordSink | None = None,
                 failure_sink: RecordSink | None = None) -> None:
        #: Pairs served from / recomputed past a RecordStore (both stay 0
        #: on store-less runs).
        self.cache_hits = 0
        self.cache_misses = 0
        self._sink = sink if sink is not None else MemoryRecordSink()
        self._failure_sink = failure_sink if failure_sink is not None \
            else MemoryRecordSink()
        self._metric_order: list[str] = []
        for block in self._sink.blocks():  # adopt pre-existing (reopened) sink content
            self._note(block)

    def _note(self, block: Any) -> None:
        """Record the first-appearance order of the block's metric."""
        if block.metric_name not in self._metric_order:
            self._metric_order.append(block.metric_name)

    def append_block(self, block: Any) -> None:
        """Append one columnar chunk of outcomes (the pipeline's feed)."""
        self._sink.append(block)
        self._note(block)

    def iter_blocks(self) -> Iterator[Any]:
        """Stream the stored columnar chunks in survey order."""
        return self._sink.blocks()

    @property
    def sink(self) -> RecordSink:
        return self._sink

    # --------------------- quarantine accounting -----------------------
    def append_failures(self, failures: Sequence[FailureRecord]) -> None:
        """Record one batch slice's quarantined failures (pipeline feed)."""
        if failures:
            self._failure_sink.append(FailureRecordBlock.from_failures(failures))

    def iter_failure_blocks(self) -> Iterator[FailureRecordBlock]:
        """Stream the quarantined-failure chunks in survey order."""
        return self._failure_sink.blocks()

    @property
    def failure_sink(self) -> RecordSink:
        return self._failure_sink

    @property
    def quarantined(self) -> list[FailureRecord]:
        """Per-failure view of the quarantine store, materialised on demand."""
        return [failure for block in self._failure_sink.blocks()
                for failure in block.failures()]

    @property
    def quarantined_count(self) -> int:
        """Number of pairs quarantined during the run."""
        return self._failure_sink.rows

    def __len__(self) -> int:
        """Total rows stored."""
        return self._sink.rows

    def metrics(self) -> list[str]:
        """Metric names present in the survey, in first-appearance order."""
        return list(self._metric_order)


def check_run_options(pipeline: str, result_type: type, workers: int | None,
                      on_error: str, sink: RecordSink | None,
                      failure_sink: RecordSink | None) -> None:
    """Reject the options no fleet pipeline can run with, naming ``pipeline``.

    A sink that already holds records is refused: appending a fresh run
    to leftover records would silently corrupt every aggregation with
    duplicates.  A previous run's spill directory is re-opened with
    ``result_type(sink=...)`` instead.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"{pipeline}: workers must be >= 1, got {workers}")
    if on_error not in ("raise", "quarantine"):
        raise ValueError(f"{pipeline}: on_error must be 'raise' or 'quarantine', "
                         f"got {on_error!r}")
    for name, given in (("sink", sink), ("failure_sink", failure_sink)):
        if given is not None and given.rows > 0:
            raise ValueError(
                f"{name} already holds {given.rows} records; {pipeline} needs an empty "
                f"{name} (point it at a fresh spill directory, or re-open the existing "
                f"one with {result_type.__name__}({name}=...))")


#: Per-worker-process source cache: re-opening the source once per process
#: instead of once per task keeps tasks cheap (worker specs are hashable
#: frozen dataclasses, so the spec doubles as the cache key).
_WORKER_SOURCES: dict[WorkerSpec, TraceSource] = {}

#: A slice address: (metric name, offset, limit).
_Slice = tuple[str, int, int]


def _slice_blocks(source: TraceSource, evaluator: SliceEvaluator, metric_name: str,
                  offset: int, limit: int, chunk_size: int) -> list[Any]:
    """Evaluate one pair slice, batch by batch, into columnar blocks."""
    blocks: list[Any] = []
    for batch in source.trace_batches(metric_name, limit=limit, offset=offset,
                                      chunk_size=chunk_size):
        blocks.extend(evaluator.evaluate(metric_name, batch))
    return blocks


def _slice_worker(task: tuple) -> list:
    """Process-pool entry point: serve one pair slice and evaluate it.

    ``task`` is ``(worker_spec, evaluator, metric_name, offset, limit,
    chunk_size)``.  The worker re-opens the trace source from the spec (a
    synthetic fleet regenerates from its config, a measured fleet re-reads
    its manifest), so no trace data crosses the process boundary; only
    the slice's result blocks travel back.  A slice address outside the
    source's pair list raises instead of silently dropping records.

    Failures surface as :class:`~repro.faults.BatchExecutionError` naming
    the batch spec, with IO-shaped errors marked retryable.
    """
    spec, evaluator, metric_name, offset, limit, chunk_size = task
    try:
        source = _WORKER_SOURCES.get(spec)
        if source is None:
            source = spec.open()
            _WORKER_SOURCES[spec] = source
        return _slice_blocks(source, evaluator, metric_name, offset, limit, chunk_size)
    except Exception as error:
        raise BatchExecutionError.wrap(
            error, f"{evaluator.kind} batch (source={spec}, metric={metric_name!r}, "
                   f"offset={offset}, limit={limit})") from error


def _batch_of(rows: Sequence[tuple[int, Any, Any]]) -> TraceBatch:
    """Stack equal-shape ``(position, pair, trace)`` rows into one batch."""
    return TraceBatch(tuple(pair for _, pair, _ in rows),
                      np.vstack([trace.values for _, _, trace in rows]), rows[0][2].interval)


def _quarantine_slice(source: TraceSource, evaluator: SliceEvaluator, result: SliceResult,
                      address: _Slice) -> None:
    """Per-pair salvage of one failed slice.

    Pairs whose trace does not load fail at stage ``"trace"``.  The rest
    are regrouped into consecutive equal-shape batches; a group whose
    evaluation raises is re-run row by row, and only the rows that still
    raise fail, at the evaluator's stage.  Evaluation is row-independent,
    so surviving rows match a clean run bit for bit, and the outcome is a
    pure function of the slice address, so every worker count salvages
    the same blocks and failures.
    """
    metric_name, offset, limit = address
    failures: list[tuple[int, FailureRecord]] = []
    loaded: list[tuple[int, Any, Any]] = []
    pairs = source.pairs_for_metric(metric_name)[offset:offset + limit]
    for position, pair in enumerate(pairs, start=offset):
        try:
            loaded.append((position, pair, source.load(pair)))
        except Exception as error:
            failures.append((position, FailureRecord.from_pair(pair, metric_name, "trace",
                                                               error, position)))
    for _, rows in itertools.groupby(loaded, key=lambda row: (len(row[2]), row[2].interval)):
        group = list(rows)
        try:
            blocks = evaluator.evaluate(metric_name, _batch_of(group))
        except Exception:
            blocks = _quarantine_rows(evaluator, metric_name, group, failures)
        for block in blocks:
            result.append_block(block)
    result.append_failures([failure for _, failure in sorted(failures,
                                                             key=lambda item: item[0])])


def _quarantine_rows(evaluator: SliceEvaluator, metric_name: str,
                     group: Sequence[tuple[int, Any, Any]],
                     failures: list[tuple[int, FailureRecord]]) -> list[Any]:
    """Re-run a failed group one row at a time, recording the rows that fail."""
    blocks: list[Any] = []
    for row in group:
        position, pair, _ = row
        try:
            blocks.extend(evaluator.evaluate(metric_name, _batch_of([row])))
        except Exception as error:
            failures.append((position, FailureRecord.from_pair(
                pair, metric_name, evaluator.stage, error, position)))
    return blocks


def _evaluate_inline(source: TraceSource, evaluator: SliceEvaluator, result: SliceResult,
                     address: _Slice, chunk_size: int, on_error: OnError,
                     retry: RetryPolicy, sleep: Callable[[float], None]) -> list[Any] | None:
    """Evaluate one slice in this process under the run's error policy.

    Returns the slice's blocks, or ``None`` once quarantine has salvaged
    the slice (the salvage appends its own blocks and failures).
    """
    metric_name, offset, limit = address
    if on_error == "raise":
        return _slice_blocks(source, evaluator, metric_name, offset, limit, chunk_size)
    for attempt in range(1, retry.max_attempts + 1):
        try:
            return _slice_blocks(source, evaluator, metric_name, offset, limit, chunk_size)
        except RETRYABLE_EXCEPTIONS:
            if attempt < retry.max_attempts:
                sleep(retry.delay(attempt))
                continue
            _quarantine_slice(source, evaluator, result, address)
        except Exception:
            _quarantine_slice(source, evaluator, result, address)
        return None
    return None


def run_slices(source: TraceSource, evaluator: SliceEvaluator, result: SliceResult,
               metric_names: Sequence[str] | None, limit_per_metric: int | None,
               chunk_size: int, workers: int | None, on_error: OnError,
               store: RecordStore | None, sleep: Callable[[float], None]) -> None:
    """Run ``evaluator`` over every ``chunk_size`` slice of ``source`` into ``result``.

    See the module docstring for the loop.  ``metric_names`` defaults to
    every metric of ``source`` and ``workers`` to 1; transient failures
    are retried under ``RetryPolicy()``.  ``result.cache_hits`` /
    ``cache_misses`` count the pairs served from and recomputed past
    ``store`` (both stay 0 without one).
    """
    if metric_names is None:
        metric_names = source.metric_names()
    workers = workers or 1
    retry = RetryPolicy()
    slices = [(metric_name, offset, limit) for metric_name in metric_names
              for offset, limit in batch_offsets(source, metric_name, limit_per_metric,
                                                 chunk_size)]
    fingerprints: list[Any] = [None] * len(slices)
    cached: list[list[Any] | None] = [None] * len(slices)
    if store is not None:
        params_token = evaluator.params_token()
        for index, (metric_name, offset, limit) in enumerate(slices):
            fingerprints[index] = fingerprint_slice(evaluator.kind, source, metric_name,
                                                    offset, limit, chunk_size, params_token)
            cached[index] = store.get(fingerprints[index])

    outcomes = None
    if workers > 1:
        spec = source.worker_spec()
        tasks = [(spec, evaluator, metric_name, offset, limit, chunk_size)
                 for (metric_name, offset, limit), hit in zip(slices, cached) if hit is None]
        outcomes = run_batch_tasks(_slice_worker, tasks, workers, retry=retry, sleep=sleep)

    for index, address in enumerate(slices):
        hit = cached[index]
        if hit is not None:
            result.cache_hits += address[2]
            for block in hit:
                result.append_block(block)
            continue
        if store is not None:
            result.cache_misses += address[2]
        if outcomes is None:
            blocks = _evaluate_inline(source, evaluator, result, address, chunk_size,
                                      on_error, retry, sleep)
        else:
            _, outcome = next(outcomes)
            if isinstance(outcome, BatchExecutionError):
                if on_error == "raise":
                    raise outcome
                _quarantine_slice(source, evaluator, result, address)
                continue
            blocks = outcome
        if blocks is None:
            continue
        if store is not None:
            store.put(fingerprints[index], blocks)
        for block in blocks:
            result.append_block(block)
