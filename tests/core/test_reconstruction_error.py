"""The fused reconstruction-error kernel equals the unfused oracle bit for bit.

:func:`repro.core.reconstruction.reconstruction_error_batch` reconstructs
and scores a collected group inside a scratch buffer;
``reconstruction_oracle`` does the same in separate, freshly allocated
steps.  Every case compares the two by ``tobytes()``, and checks that
the kernel writes to neither input.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.reconstruction import reconstruction_error_batch
from repro.pipeline.policies import Collection
from reconstruction_oracle import compare_batch, reconstruct_batch


def oracle(reference, collected, collected_interval, reference_interval):
    reconstructed = reconstruct_batch(collected, collected_interval, 1.0 / reference_interval)
    return compare_batch(reference, reconstructed)


def assert_bit_equal(ours, theirs):
    for got, want in zip(ours, theirs, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def assert_kernel_matches_oracle(reference, collected, collected_interval,
                                 reference_interval=1.0):
    reference_before = reference.copy()
    collected_before = collected.copy()
    result = reconstruction_error_batch(reference, collected, collected_interval,
                                        reference_interval)
    assert reference.tobytes() == reference_before.tobytes()
    assert collected.tobytes() == collected_before.tobytes()
    assert_bit_equal(result, oracle(reference, collected, collected_interval,
                                    reference_interval))
    return result


def smooth_rows(rng, rows, n):
    return rng.normal(size=(rows, n)).cumsum(axis=1)


@pytest.mark.parametrize("m, factor, n", [
    (64, 4, 256), (63, 4, 252),          # up-sampling, even and odd m
    (64, 4, 250), (63, 4, 249),          # reconstruction longer than the reference
    (64, 4, 260),                        # reference longer than the reconstruction
    (1466, 4, 5864), (1466, 4, 5862),    # Bluestein-sized lengths of the workloads
    (347, 16, 5552), (347, 16, 5540),
    (360, 1, 360), (361, 1, 361),        # target == m
    (128, 0.5, 64), (127, 0.5, 64),      # down-sampling, even and odd m
], ids=lambda value: str(value))
@pytest.mark.parametrize("rows", [1, 7])
def test_matches_oracle(rng, m, factor, n, rows):
    reference = smooth_rows(rng, rows, n)
    collected = smooth_rows(rng, rows, m)
    assert_kernel_matches_oracle(reference, collected, float(factor))


@pytest.mark.parametrize("reference_interval", [0.5, 30.0, 300.0])
def test_matches_oracle_at_other_reference_intervals(rng, reference_interval):
    reference = smooth_rows(rng, 5, 2880)
    collected = reference[:, ::4]
    assert_kernel_matches_oracle(reference, collected, 4 * reference_interval,
                                 reference_interval)


def test_constant_rows_score_zero_or_nan():
    reference = np.full((3, 40), 5.0)
    collected = np.full((3, 10), 5.0)
    collected[1, 3] = 6.0
    nrmse, _ = assert_kernel_matches_oracle(reference, collected, 4.0)
    assert nrmse[0] == 0.0 and nrmse[2] == 0.0
    assert np.isnan(nrmse[1])


def test_non_finite_rows_without_a_flat_row_match_the_oracle(rng):
    # No reference row is flat, so the kernel divides by the range
    # directly; NaN and +-inf rows must still score as the oracle does,
    # and quietly.
    reference = smooth_rows(rng, 5, 256)
    reference[1, 17] = np.nan
    reference[2, 3] = np.inf
    reference[3, 200] = -np.inf
    reference[4, ::5] = -0.0
    collected = smooth_rows(rng, 5, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_kernel_matches_oracle(reference, collected, 4.0)


def test_exact_copy_scores_zero_without_writing_to_a_view_of_the_reference(rng):
    # A production-rate fleet collects every sample: the collected matrix
    # is a view of the reference and target == m.
    reference = smooth_rows(rng, 4, 500)
    before = reference.copy()
    nrmse, max_abs = assert_kernel_matches_oracle(reference, reference[:, ::1], 1.0)
    assert nrmse.tolist() == [0.0] * 4 and max_abs.tolist() == [0.0] * 4
    assert reference.tobytes() == before.tobytes()


def test_non_contiguous_inputs(rng):
    wide = smooth_rows(rng, 6, 1200)
    assert_kernel_matches_oracle(wide[::2, :600], wide[1::2, ::8], 8.0)
    assert_kernel_matches_oracle(np.asfortranarray(wide), np.asfortranarray(wide[:, ::3]), 3.0)


@pytest.mark.parametrize("members", ["slice", "index"])
def test_collection_groups_match_oracle(rng, members):
    values = smooth_rows(rng, 6, 1466 * 4)
    before = values.copy()
    n = values.shape[1]
    if members == "slice":
        strides = [4] * 6
        groups = ((slice(None), values[:, ::4], 4.0),)
    else:
        strides = [16, 4, 4, 16, 16, 4]
        groups = ((np.array([0, 3, 4]), values[[0, 3, 4], ::16], 16.0),
                  (np.array([1, 2, 5]), values[[1, 2, 5], ::4], 4.0))
    runs = tuple(((0, n, stride),) for stride in strides)
    evaluation = Collection(np.full(6, 10, dtype=np.int64), runs).evaluate("p", values, 1.0)
    expected_nrmse = np.zeros(6)
    expected_max_abs = np.zeros(6)
    for rows, collected, collected_interval in groups:
        expected_nrmse[rows], expected_max_abs[rows] = oracle(values[rows], collected,
                                                              collected_interval, 1.0)
    assert_bit_equal((evaluation.nrmse, evaluation.max_abs_error),
                     (expected_nrmse, expected_max_abs))
    assert values.tobytes() == before.tobytes()


@pytest.mark.parametrize("reference, collected, reference_interval, message", [
    (np.zeros(8), np.zeros((1, 4)), 1.0, "matrices"),
    (np.zeros((2, 8)), np.zeros((3, 4)), 1.0, "row counts"),
    (np.zeros((2, 8)), np.zeros((2, 0)), 1.0, "empty rows"),
    (np.zeros((2, 0)), np.zeros((2, 4)), 1.0, "empty series"),
    (np.zeros((2, 8)), np.zeros((2, 4)), 0.0, "reference_interval"),
], ids=["not-a-matrix", "row-mismatch", "no-collected-columns", "no-reference-columns",
        "zero-interval"])
def test_rejects_bad_input(reference, collected, reference_interval, message):
    with pytest.raises(ValueError, match=message):
        reconstruction_error_batch(reference, collected, 2.0, reference_interval)
