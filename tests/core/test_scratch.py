"""Scratch buffers never leak into results, and the scoring loop stops allocating.

:mod:`repro.core.scratch` lends per-thread buffers to the batched
estimator and the reconstruction-error kernel.  These tests pin what
that must not change: a later call never alters an earlier result, no
result is a view of a buffer, threads do not share buffers, and a warm
policy evaluation allocates less than one reference-sized matrix.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import scratch
from repro.core.nyquist import NyquistEstimator
from repro.core.reconstruction import reconstruction_error_batch
from repro.pipeline.policies import FixedRatePolicy, NyquistStaticPolicy


def smooth_rows(seed, rows, n):
    return np.random.default_rng(seed).normal(size=(rows, n)).cumsum(axis=1)


def kept_buffers():
    return list(scratch._local.__dict__.get("buffers", {}).values())


def estimate_fields(estimates):
    return [(e.nyquist_rate, e.cutoff_frequency, e.captured_fraction, e.total_energy,
             e.reliable, e.reason) for e in estimates]


def workload(seed):
    """Interleaved estimator and kernel calls on three shapes; returns every result."""
    results = []
    for rows, n, factor in [(6, 5760, 4), (3, 1441, 3), (9, 2880, 16)]:
        reference = smooth_rows(seed + n, rows, n)
        results.append(reconstruction_error_batch(reference, reference[:, ::factor],
                                                  float(factor), 1.0))
        results.append(estimate_fields(NyquistEstimator().estimate_batch(reference, 1.0)))
        results.append(estimate_fields(
            NyquistEstimator(detrend=True, window="hann").estimate_batch(reference, 1.0)))
    return results


def test_interleaved_shapes_leave_earlier_results_intact():
    big = smooth_rows(1, 8, 5760)
    small = smooth_rows(2, 2, 700)
    first = reconstruction_error_batch(big, big[:, ::4], 4.0, 1.0)
    saved = [column.copy() for column in first]
    second = reconstruction_error_batch(small, small[:, ::3], 3.0, 1.0)
    third = reconstruction_error_batch(big[:3], big[:3, ::16], 16.0, 1.0)
    for column, copy in zip(first, saved):
        assert column.tobytes() == copy.tobytes()
    assert not any(np.shares_memory(a, b) for a in first for b in (*second, *third))
    again = reconstruction_error_batch(big, big[:, ::4], 4.0, 1.0)
    assert [column.tobytes() for column in again] == [column.tobytes() for column in saved]


def test_no_result_shares_memory_with_a_scratch_buffer():
    values = smooth_rows(3, 10, 2880)
    results = [*reconstruction_error_batch(values, values[:, ::4], 4.0, 1.0),
               *reconstruction_error_batch(values, values, 1.0, 1.0)]
    for policy in (FixedRatePolicy(4.0), NyquistStaticPolicy(4.0)):
        evaluation = policy.evaluate_batch(values, 1.0)
        results += [evaluation.samples_collected, evaluation.mean_sampling_rate,
                    evaluation.nrmse, evaluation.max_abs_error]
    buffers = kept_buffers()
    assert buffers
    assert not any(np.shares_memory(result, buffer)
                   for result in results for buffer in buffers)


def test_threads_get_identical_estimates_and_errors():
    # More threads than cores, switching often, so that two threads'
    # calls interleave mid-kernel if they shared a buffer.
    expected = workload(0)
    barrier = threading.Barrier(4)
    outcomes: dict[int, list] = {}
    buffers: dict[int, list] = {}

    def run(index):
        barrier.wait()
        outcomes[index] = [workload(0) for _ in range(3)]
        buffers[index] = kept_buffers()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(outcomes) == [0, 1, 2, 3]
    for runs in outcomes.values():
        for results in runs:
            for got, want in zip(results, expected, strict=True):
                if isinstance(got, tuple):
                    assert [column.tobytes() for column in got] == \
                        [column.tobytes() for column in want]
                else:
                    assert got == want
    assert not any(np.shares_memory(a, b)
                   for first in range(4) for second in range(first + 1, 4)
                   for a in buffers[first] for b in buffers[second])


def test_requests_over_the_cap_are_not_kept(monkeypatch):
    monkeypatch.setattr(scratch, "MAX_KEPT_BYTES", 1024)
    kept = scratch.borrow("test-cap", (8, 16), np.float64)
    fresh = scratch.borrow("test-cap", (8, 17), np.float64)
    assert fresh.flags.c_contiguous and fresh.shape == (8, 17)
    assert not np.shares_memory(kept, fresh)
    assert scratch.borrow("test-cap", (4, 4), np.float64).base is kept.base


@pytest.mark.parametrize("interval", [1.0, 4.0])
def test_warm_fixed_rate_evaluation_allocates_less_than_one_reference_matrix(interval):
    values = smooth_rows(4, 12, 5760)
    policy = FixedRatePolicy(interval)
    policy.evaluate_batch(values, 1.0)  # warm the scratch buffers
    tracemalloc.start()
    try:
        policy.evaluate_batch(values, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes
