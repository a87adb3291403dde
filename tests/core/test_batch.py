"""Equivalence tests for the batched spectral engine (repro.core.batch).

The batched engine is an optimisation, not a new estimator: for every
configuration and every trace shape, its estimates must match what the
scalar reference path (:meth:`NyquistEstimator.estimate`) produces row by
row.  These tests sweep windows, odd/even lengths, detrend, DC handling,
energy fractions and degenerate traces (constant, all-zero, broadband)
and assert rate equality plus identical reliability flags.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import batch as batch_module
from repro.core.batch import batch_estimate
from repro.core.nyquist import NON_FINITE_REASON, NyquistEstimate, NyquistEstimator
from repro.core.psd import batch_periodogram, periodogram
from repro.signals.spectrum import SpectrumBatch
from repro.signals.timeseries import TimeSeries


def make_matrix(n: int, rows: int = 8, seed: int = 0) -> np.ndarray:
    """Mixed bag of traces: random walks, a constant, white noise, zeros, a tone."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(rows, n)).cumsum(axis=1)
    matrix[1] = 42.5                                        # constant trace
    matrix[2] = rng.normal(size=n)                          # broadband (aliased suspect)
    matrix[3] = 0.0                                         # all zeros
    matrix[4] = np.sin(2 * np.pi * 3.0 * np.arange(n) / n)  # clean slow tone
    return matrix


def assert_equivalent(scalar: NyquistEstimate, batched: NyquistEstimate) -> None:
    assert scalar.reliable == batched.reliable
    assert scalar.reason == batched.reason
    assert np.isclose(scalar.nyquist_rate, batched.nyquist_rate)
    assert np.isclose(scalar.current_rate, batched.current_rate)
    assert np.isclose(scalar.captured_fraction, batched.captured_fraction)
    assert np.isclose(scalar.total_energy, batched.total_energy)
    if scalar.reliable:
        assert np.isclose(scalar.reduction_ratio, batched.reduction_ratio)


class TestBatchedPsd:
    @pytest.mark.parametrize("n", [16, 17, 128, 129])
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    def test_batch_periodogram_matches_scalar_rows(self, n, window):
        matrix = make_matrix(n)
        batch = batch_periodogram(matrix, interval=2.0, window=window)
        assert isinstance(batch, SpectrumBatch)
        assert len(batch) == matrix.shape[0]
        for index in range(matrix.shape[0]):
            scalar = periodogram(TimeSeries(matrix[index], 2.0), window=window)
            np.testing.assert_allclose(batch.row(index).power, scalar.power, atol=1e-12)
            np.testing.assert_allclose(batch.frequencies, scalar.frequencies)

    @pytest.mark.parametrize("values, interval, message", [
        (np.zeros((2, 3, 4)), 1.0, "2-D"),
        (np.zeros((2, 8)), 0.0, "interval"),
        (np.zeros((2, 1)), 1.0, "two samples"),
    ], ids=["not-a-matrix", "zero-interval", "one-sample"])
    def test_batch_periodogram_rejects_bad_input(self, values, interval, message):
        with pytest.raises(ValueError, match=message):
            batch_periodogram(values, interval)


class TestBatchEstimateEquivalence:
    @pytest.mark.parametrize("n", [16, 17, 64, 65, 256, 257])
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    def test_windows_and_lengths(self, n, window):
        estimator = NyquistEstimator(window=window)
        matrix = make_matrix(n, seed=n)
        batched = batch_estimate(matrix, 2.0, estimator=estimator)
        for index in range(matrix.shape[0]):
            scalar = estimator.estimate(TimeSeries(matrix[index], 2.0))
            assert_equivalent(scalar, batched[index])

    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("detrend", [False, True])
    @pytest.mark.parametrize("include_dc", [False, True])
    def test_window_detrend_and_dc(self, window, detrend, include_dc):
        estimator = NyquistEstimator(window=window, detrend=detrend, include_dc=include_dc)
        matrix = make_matrix(96, seed=11)
        batched = batch_estimate(matrix, 30.0, estimator=estimator)
        for index in range(matrix.shape[0]):
            scalar = estimator.estimate(TimeSeries(matrix[index], 30.0))
            assert_equivalent(scalar, batched[index])

    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("energy_fraction", [0.5, 0.9, 0.99, 1.0])
    def test_energy_fractions(self, energy_fraction, window):
        estimator = NyquistEstimator(energy_fraction=energy_fraction, window=window)
        matrix = make_matrix(120, seed=3)
        batched = batch_estimate(matrix, 1.0, estimator=estimator)
        for index in range(matrix.shape[0]):
            scalar = estimator.estimate(TimeSeries(matrix[index], 1.0))
            assert_equivalent(scalar, batched[index])

    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("detrend", [False, True])
    @pytest.mark.parametrize("include_dc", [False, True])
    def test_fast_path_takes_every_rectangular_dc_free_setup(self, monkeypatch, window,
                                                              detrend, include_dc):
        """Rectangular, DC-free setups (detrended or not) take the fast path;
        a taper or the DC bin sends the batch down the generic one."""
        calls = []
        fast = batch_module._fast_batch_estimate

        def counted(*args, **kwargs):
            calls.append(args)
            return fast(*args, **kwargs)

        monkeypatch.setattr(batch_module, "_fast_batch_estimate", counted)
        estimator = NyquistEstimator(window=window, detrend=detrend, include_dc=include_dc)
        batch_estimate(make_matrix(64), 1.0, estimator=estimator)
        assert len(calls) == (window == "rectangular" and not include_dc)

    def test_near_constant_rows(self):
        """Only an exactly constant row is "constant"; a tiny wobble is a trace."""
        estimator = NyquistEstimator()
        rng = np.random.default_rng(9)
        matrix = 100.0 + 0.0001 * rng.normal(size=(6, 64))
        matrix[2] = 100.0
        matrix[4] = rng.normal(size=64) * 50.0
        batched = batch_estimate(matrix, 1.0, estimator=estimator)
        for index in range(matrix.shape[0]):
            scalar = estimator.estimate(TimeSeries(matrix[index], 1.0))
            assert_equivalent(scalar, batched[index])
        assert [e.reason == "constant trace" for e in batched] == [
            index == 2 for index in range(6)]

    def test_aliased_band_fraction(self):
        estimator = NyquistEstimator(aliased_band_fraction=0.5)
        matrix = make_matrix(128, seed=21)
        batched = batch_estimate(matrix, 1.0, estimator=estimator)
        for index in range(matrix.shape[0]):
            scalar = estimator.estimate(TimeSeries(matrix[index], 1.0))
            assert_equivalent(scalar, batched[index])

    def test_constant_traces_are_reliable_with_lowest_rate(self):
        matrix = np.full((3, 64), 7.0)
        batched = batch_estimate(matrix, 10.0)
        for estimate in batched:
            assert estimate.reliable
            assert estimate.reason == "constant trace"
            assert estimate.nyquist_rate == pytest.approx(1.0 / (64 * 10.0))

    def test_short_traces_rejected_per_row(self):
        batched = batch_estimate(np.zeros((4, 15)), 1.0)
        assert all(not e.reliable and e.reason == "trace too short" for e in batched)

    def test_empty_batch(self):
        assert batch_estimate(np.empty((0, 64)), 1.0) == []

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            batch_estimate(np.zeros(16), 1.0)
        with pytest.raises(ValueError):
            batch_estimate(np.zeros((2, 16)), -1.0)

    def test_estimator_method_entry_point(self):
        """NyquistEstimator.estimate_batch is the public door to the engine."""
        estimator = NyquistEstimator()
        matrix = make_matrix(64, seed=5)
        via_method = estimator.estimate_batch(matrix, 1.0)
        via_function = batch_estimate(matrix, 1.0, estimator=estimator)
        for a, b in zip(via_method, via_function):
            assert_equivalent(a, b)

    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    def test_fft_workers_do_not_change_results(self, window):
        """pocketfft worker threads parallelise across rows only, so the
        per-row estimates must be bit-identical to the single-threaded run."""
        estimator = NyquistEstimator(window=window)
        matrix = make_matrix(128, rows=16, seed=13)
        single = batch_estimate(matrix, 2.0, estimator=estimator)
        threaded = batch_estimate(matrix, 2.0, estimator=estimator, fft_workers=4)
        for a, b in zip(single, threaded):
            assert a.nyquist_rate == b.nyquist_rate
            assert a.reliable == b.reliable
            assert a.captured_fraction == b.captured_fraction
            assert a.total_energy == b.total_energy

    def test_randomised_sweep(self):
        """Property-style: many random shapes/configs, scalar == batched."""
        rng = np.random.default_rng(2024)
        for trial in range(10):
            n = int(rng.integers(16, 200))
            rows = int(rng.integers(1, 6))
            interval = float(rng.uniform(0.1, 600.0))
            estimator = NyquistEstimator(
                energy_fraction=float(rng.uniform(0.5, 1.0)),
                window=["rectangular", "hann"][int(rng.integers(2))],
                detrend=bool(rng.integers(2)),
            )
            matrix = rng.normal(size=(rows, n)).cumsum(axis=1)
            if rows > 1:
                matrix[0] = float(rng.normal())  # one constant row per batch
            batched = batch_estimate(matrix, interval, estimator=estimator)
            for index in range(rows):
                scalar = estimator.estimate(TimeSeries(matrix[index], interval))
                assert_equivalent(scalar, batched[index])


class TestExactBatchEstimate:
    """``estimate_rows`` is the scalar estimator run over a matrix: bit for bit."""

    @staticmethod
    def assert_identical(matrix: np.ndarray, interval: float,
                         estimator: NyquistEstimator) -> None:
        rows = estimator.estimate_rows(matrix, interval)
        assert len(rows) == matrix.shape[0]
        for index, estimate in enumerate(rows):
            # repr compares every field exactly (and NaN equal to NaN).
            assert repr(estimate) == repr(estimator.estimate(TimeSeries(matrix[index], interval)))

    @pytest.mark.parametrize("n", [16, 17, 96, 241])
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    @pytest.mark.parametrize("detrend", [False, True])
    def test_matches_scalar_bit_for_bit(self, n, window, detrend):
        estimator = NyquistEstimator(window=window, detrend=detrend,
                                     aliased_band_fraction=1.0)
        self.assert_identical(make_matrix(n, rows=10, seed=n), 30.0, estimator)

    def test_dc_and_energy_fraction(self):
        matrix = make_matrix(120, rows=12, seed=3)
        matrix[5] = 100.0 + 1e-9 * np.arange(120)  # nearly flat, but not constant
        for estimator in (NyquistEstimator(include_dc=True),
                          NyquistEstimator(detrend=True),
                          NyquistEstimator(energy_fraction=0.5, window="hann")):
            self.assert_identical(matrix, 7.5, estimator)

    def test_short_and_empty(self):
        estimator = NyquistEstimator()
        self.assert_identical(np.zeros((3, 15)), 1.0, estimator)
        assert estimator.estimate_rows(np.empty((0, 64)), 1.0) == []

    def test_strided_input(self):
        """Decimated (non-contiguous) views give the same answers as copies."""
        matrix = make_matrix(400, rows=6, seed=9)
        estimator = NyquistEstimator(detrend=True, window="hann")
        strided = estimator.estimate_rows(matrix[:, ::3], 3.0)
        copied = estimator.estimate_rows(np.array(matrix[:, ::3]), 3.0)
        assert repr(strided) == repr(copied)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            NyquistEstimator().estimate_rows(np.zeros(16), 1.0)
        with pytest.raises(ValueError):
            NyquistEstimator().estimate_rows(np.zeros((2, 16)), 0.0)


#: The survey default takes the batched fast path; the short-window
#: (Figure 7 / adaptive controller) configuration takes the generic one.
ESTIMATORS = {"survey": NyquistEstimator(),
              "short-window": NyquistEstimator(detrend=True, window="hann",
                                               aliased_band_fraction=1.0)}


def _estimate_one(estimator: NyquistEstimator, path: str, matrix: np.ndarray,
                  interval: float) -> list[NyquistEstimate]:
    if path == "estimate":
        return [estimator.estimate(TimeSeries(row, interval)) for row in matrix]
    return getattr(estimator, path)(matrix, interval)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteTraces:
    """A nan or inf sample makes the energy total non-finite; every path
    refuses the row instead of reporting a bottom-bin rate as reliable."""

    @staticmethod
    def _trace(bad: float) -> np.ndarray:
        trace = np.sin(2 * np.pi * 3.0 * np.arange(41) / 41) \
            + np.random.default_rng(5).normal(0.0, 0.01, 41)
        trace[17] = bad
        return trace

    @pytest.mark.parametrize("config", list(ESTIMATORS))
    @pytest.mark.parametrize("path", ["estimate", "estimate_batch", "estimate_rows"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_is_refused(self, bad, path, config):
        (estimate,) = _estimate_one(ESTIMATORS[config], path, self._trace(bad)[None, :], 60.0)
        assert not estimate.reliable
        assert estimate.reason == NON_FINITE_REASON
        assert estimate.nyquist_rate == -1.0
        assert math.isnan(estimate.reduction_ratio)
        assert not estimate.oversampled

    @pytest.mark.parametrize("config", list(ESTIMATORS))
    @pytest.mark.parametrize("path", ["estimate_batch", "estimate_rows"])
    def test_finite_rows_of_the_batch_are_unaffected(self, path, config):
        estimator = ESTIMATORS[config]
        clean = make_matrix(41, rows=6, seed=2)
        mixed = clean.copy()
        mixed[0] = self._trace(np.nan)
        mixed[5] = self._trace(-np.inf)
        expected = _estimate_one(estimator, path, clean, 60.0)
        got = _estimate_one(estimator, path, mixed, 60.0)
        assert [e.reason for e in (got[0], got[5])] == [NON_FINITE_REASON] * 2
        assert repr(got[1:5]) == repr(expected[1:5])


@pytest.mark.parametrize("window", ["rectangular", "hann"])
@pytest.mark.parametrize("path", ["estimate", "estimate_batch", "estimate_rows"])
def test_dc_dominated_trace_reports_one_cycle_per_trace(path, window):
    """With the DC bin counted, a large offset puts the cut-off on the DC bin;
    every path then reports the lowest rate the trace can witness."""
    n, interval = 128, 30.0
    matrix = 1000.0 + 0.1 * np.sin(2 * np.pi * 5.0 * np.arange(n) / n)[None, :]
    estimator = NyquistEstimator(include_dc=True, window=window)
    (estimate,) = _estimate_one(estimator, path, matrix, interval)
    assert estimate.reliable
    assert estimate.cutoff_frequency == pytest.approx(1.0 / (n * interval))
    assert estimate.nyquist_rate == pytest.approx(2.0 / (n * interval))


def test_generic_path_batch_of_constant_rows(monkeypatch):
    """A tapered batch whose every row is constant never reaches the FFT."""
    estimator = NyquistEstimator(window="hann")
    expected = estimator.estimate_rows(np.full((3, 32), 5.0), 2.0)

    def no_fft(*args, **kwargs):
        raise AssertionError("constant rows reached the FFT")

    monkeypatch.setattr(batch_module, "_batch_power", no_fft)
    batched = batch_estimate(np.full((3, 32), 5.0), 2.0, estimator=estimator)
    assert [e.reason for e in batched] == ["constant trace"] * 3
    assert repr(batched) == repr(expected)
