"""The batched engine's ``rfft`` against scipy's, bit for bit.

:func:`repro.core.batch._rfft` runs numpy's pocketfft unless
``fft_workers > 1`` asks for scipy's threaded one.  Survey records are
compared byte for byte across worker counts and against stores filled by
earlier versions, which computed every PSD with ``scipy.fft.rfft``, so
numpy's transform must equal scipy's exactly -- not to rounding -- on
every shape the estimators use.  Skipped when scipy is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import _rfft

scipy_fft = pytest.importorskip("scipy.fft")

#: Every length up to 130 (odd, even, prime, smooth), powers of two and
#: their neighbours, and the lengths the survey and policy fleets produce
#: (one day at 60 s and 30 s polls, 6 h at 300 s x 4 oversampling, ...).
LENGTHS = sorted({*range(1, 131), *(2 ** p + d for p in range(8, 13) for d in (-1, 0, 1)),
                  288, 720, 1000, 1440, 2160, 2880, 4320, 5760, 8640})
ROWS = (1, 3, 16)


def assert_bits_equal(ours: np.ndarray, reference: np.ndarray) -> None:
    assert ours.shape == reference.shape and ours.dtype == reference.dtype
    np.testing.assert_array_equal(np.ascontiguousarray(ours).view(np.int64),
                                  np.ascontiguousarray(reference).view(np.int64))


@pytest.mark.parametrize("rows", ROWS)
def test_numpy_rfft_equals_scipy_rfft_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    for n in LENGTHS:
        matrix = rng.normal(size=(rows, n)).cumsum(axis=1)
        assert_bits_equal(_rfft(matrix), scipy_fft.rfft(matrix, axis=-1))


def test_strided_and_degenerate_inputs_match():
    rng = np.random.default_rng(7)
    wide = rng.normal(size=(6, 2 * 1441))
    for matrix in (wide[:, ::2], wide[::2], np.asfortranarray(wide),
                   np.zeros((4, 300)), np.full((4, 301), 42.5)):
        assert_bits_equal(_rfft(matrix), scipy_fft.rfft(matrix, axis=-1))


def test_fft_workers_use_scipy_and_change_nothing():
    matrix = np.random.default_rng(3).normal(size=(16, 2880))
    assert_bits_equal(_rfft(matrix, fft_workers=4), _rfft(matrix))
    assert_bits_equal(_rfft(matrix, fft_workers=4),
                      scipy_fft.rfft(matrix, axis=-1, workers=4))
