"""Process-pool lifecycle of :func:`~repro.faults.run_batch_tasks`.

A completed run joins its pool before yielding the last outcome, so no
worker process outlives it -- whether the caller drains the generator
(``list``) or, like the slice driver, stops after exactly as many
``next()`` calls as there are tasks.
"""

from __future__ import annotations

import multiprocessing

from repro.analysis.survey import run_survey
from repro.faults import BatchExecutionError, run_batch_tasks
from repro.telemetry.dataset import DatasetConfig, FleetDataset


def _square(task: int) -> int:
    return task * task


def _fail_on_three(task: int) -> int:
    if task == 3:
        raise BatchExecutionError(f"task {task} is bad", error_type="ValueError",
                                  retryable=False)
    return task


def test_drained_run_leaves_no_live_children():
    assert list(run_batch_tasks(_square, [1, 2, 3, 4], workers=2)) == \
        [(0, 1), (1, 4), (2, 9), (3, 16)]
    assert multiprocessing.active_children() == []


def test_counted_next_calls_leave_no_live_children():
    tasks = [0, 1, 2, 3]
    outcomes = run_batch_tasks(_fail_on_three, tasks, workers=2)
    results = [next(outcomes) for _ in tasks]
    assert [index for index, _ in results] == [0, 1, 2, 3]
    assert isinstance(results[-1][1], BatchExecutionError)
    assert multiprocessing.active_children() == []


def test_pooled_survey_leaves_no_live_children():
    result = run_survey(FleetDataset(DatasetConfig(pair_count=28, seed=5)), workers=2,
                        chunk_size=4)
    assert len(result) == 28
    assert multiprocessing.active_children() == []
