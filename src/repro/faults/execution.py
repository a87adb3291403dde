"""Fault-isolated batch execution: bounded retry + broken-pool recovery.

Both fleet surveys fan work out as picklable batch specs; this module is
the shared driver that keeps one bad batch (or one dead worker) from
costing the run:

* :class:`BatchExecutionError` -- the picklable wrapper worker entry
  points raise instead of letting a bare traceback surface from the
  pool.  It names the batch spec (source, metric, offset, limit),
  carries the original exception type for failure records, and a
  ``retryable`` verdict (IO errors are transient; content errors are
  not).
* :data:`MAX_ATTEMPTS` and :func:`retry_delay` -- the one retry
  budget (3 tries) with a *deterministic* exponential backoff (0.05 s,
  doubling: a pure function of the attempt, no jitter), so a chaos run
  with a seeded fault plan replays identically.
* :func:`run_batch_tasks` -- submits every task to a process pool and
  yields ``(index, result-or-error)`` in task order.  Retryable failures
  are resubmitted up to that budget; a ``BrokenProcessPool``
  (worker crashed mid-batch) rebuilds the pool, charges one retry to the
  batch that was being waited on and resubmits everything not yet
  finished -- completed results are never re-executed, so records are
  not duplicated.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, Sequence

__all__ = ["RETRYABLE_EXCEPTIONS", "MAX_ATTEMPTS", "BatchExecutionError", "retry_delay",
           "run_batch_tasks"]

#: Exception types treated as transient (worth retrying): IO-shaped
#: failures.  Content failures (``ValueError``: corrupt trace, bad slice
#: address) are deterministic and go straight to quarantine/raise.
RETRYABLE_EXCEPTIONS: tuple[type[BaseException], ...] = (OSError,)

#: Total tries per batch (the first run plus two retries).
MAX_ATTEMPTS = 3

_BACKOFF_BASE = 0.05
_BACKOFF_FACTOR = 2.0


class BatchExecutionError(RuntimeError):
    """A batch of survey work failed, with its spec named in the message.

    Crosses the process boundary losslessly (``__reduce__``), so the
    parent keeps the original exception type name and the retryable
    verdict even though the original exception object stays worker-side.
    """

    def __init__(self, message: str, error_type: str, retryable: bool) -> None:
        super().__init__(message)
        self.error_type = error_type
        self.retryable = retryable

    def __reduce__(self) -> tuple:
        return (BatchExecutionError, (str(self), self.error_type, self.retryable))

    @classmethod
    def wrap(cls, error: Exception, context: str) -> "BatchExecutionError":
        """Wrap a worker-side exception with its batch-spec context."""
        return cls(f"{context}: {type(error).__name__}: {error}",
                   error_type=type(error).__name__,
                   retryable=isinstance(error, RETRYABLE_EXCEPTIONS))


def retry_delay(attempt: int) -> float:
    """Seconds to back off after failed attempt number ``attempt`` (1-based).

    ``0.05 * 2 ** (attempt - 1)``: a pure function of the attempt number,
    so runs replay identically (no jitter, no clock reads).
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    return _BACKOFF_BASE * _BACKOFF_FACTOR ** (attempt - 1)


def _needs_resubmit(future: Future) -> bool:
    """True when a future's work was lost with the pool (or never ran)."""
    if not future.done():
        return True
    if future.cancelled():
        return True
    error = future.exception()
    return isinstance(error, BrokenProcessPool)


def run_batch_tasks(worker_fn: Callable[[Any], Any], tasks: Sequence[Any],
                    workers: int, sleep: Callable[[float], None] = time.sleep,
                    ) -> Iterator[tuple[int, Any]]:
    """Run every task on a process pool; yield ``(index, outcome)`` in order.

    ``outcome`` is the worker's return value, or the final
    :class:`BatchExecutionError` once the task is out of retry budget (a
    non-retryable error spends no budget and surfaces immediately).  Two
    failure routes are retried:

    * a worker raising a retryable :class:`BatchExecutionError` -- the
      task is resubmitted after ``retry_delay(attempt)``;
    * the pool breaking (a worker process died) -- the pool is rebuilt,
      the batch being waited on is charged one attempt, and every
      unfinished task is resubmitted on the new pool.  Results already
      completed are kept, never re-executed.

    Any other exception type propagates unchanged (it is a bug, not a
    batch failure).  The pool is joined before the last outcome is
    yielded, so no worker process outlives a completed run; a raising or
    abandoned generator shuts it down without waiting.  ``sleep`` is
    injectable so tests and benchmarks can skip the real backoff waits.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not tasks:
        return
    # Never spawn more processes than there are tasks: a short batch list
    # (e.g. a sharded ingest of a tiny dump) should not pay the fork and
    # teardown cost of idle workers.
    pool_size = min(workers, len(tasks))
    pool = ProcessPoolExecutor(max_workers=pool_size)
    try:
        futures: dict[int, Future] = {index: pool.submit(worker_fn, task)
                                      for index, task in enumerate(tasks)}
        attempts = {index: 1 for index in range(len(tasks))}
        index = 0
        while index < len(tasks):
            try:
                outcome = futures[index].result()
            except BrokenProcessPool:
                # A worker died mid-batch.  Rebuild the pool and resubmit
                # every task whose work was lost; the batch being waited
                # on is the prime suspect and is charged the retry.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=pool_size)
                exhausted = attempts[index] >= MAX_ATTEMPTS
                if not exhausted:
                    sleep(retry_delay(attempts[index]))
                    attempts[index] += 1
                for position in range(index + 1 if exhausted else index, len(tasks)):
                    if _needs_resubmit(futures[position]):
                        futures[position] = pool.submit(worker_fn, tasks[position])
                if not exhausted:
                    continue
                outcome = BatchExecutionError(
                    f"batch {index} crashed its worker process "
                    f"{attempts[index]} times (BrokenProcessPool)",
                    error_type="BrokenProcessPool", retryable=True)
            except BatchExecutionError as error:
                if error.retryable and attempts[index] < MAX_ATTEMPTS:
                    sleep(retry_delay(attempts[index]))
                    attempts[index] += 1
                    futures[index] = pool.submit(worker_fn, tasks[index])
                    continue
                outcome = error
            if index == len(tasks) - 1:
                # Every future is done: join the workers before the last
                # yield, because callers that count their ``next()`` calls
                # never resume the generator into ``finally``.
                pool.shutdown(wait=True)
            yield index, outcome
            index += 1
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
