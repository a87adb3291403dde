"""Batched Nyquist estimation: the Section 3.2 method over many traces at once.

The fleet survey runs the same estimator over thousands of (metric,
device) pairs.  Doing that one trace at a time spends most of its wall
clock in Python overhead rather than in the FFT; this module instead
accepts a ``(rows, n)`` matrix of equal-length, equal-interval traces and
performs every stage of the estimator as one vectorised numpy operation:

* optional linear detrend   -- one closed-form least-squares fit per row;
* optional taper            -- the Hann window multiplied into every row;
* the PSD                   -- a single ``rfft(axis=-1)`` call for the
  whole batch (numpy's pocketfft; scipy's, threaded across rows, only
  when ``fft_workers > 1`` asks for it and scipy is installed);
* the 99 % energy cut-off   -- ``np.cumsum`` + ``argmax`` over the batch;
* constant-trace detection  -- the exact per-row peak-to-peak check.

Only the final wrap into per-trace :class:`~repro.core.nyquist.NyquistEstimate`
objects is a Python loop, which is O(rows) rather than O(rows x n).

One engine serves every DC-free setup the library runs -- the survey
default (rectangular window) and the short-window detrend + Hann setup
of the Figure 7 sweep and the adaptive controller -- and rests on three
algebraic shortcuts, none of which changes a cut-off:

* the energy comparison is done against per-row raw (unscaled) power --
  the cut-off index only depends on energy *ratios*, so the PSD
  normalisation (``n * n``, or ``n`` times the taper's energy) is applied
  afterwards to the handful of per-row scalars that are reported;
* the one-sided doubling of interior bins multiplies every compared bin
  by the same factor (odd ``n``) or is folded into the per-row energy
  target (even ``n``, where only the Nyquist bin is not doubled), so no
  full-matrix doubling pass is needed;
* without a taper, constant traces are detected lazily: a constant row's
  non-DC energy is pure FFT round-off (~``(n*eps)^2`` relative to DC), so
  only rows whose band energy is vanishingly small relative to their DC
  bin pay the exact peak-to-peak check.

Everything that depends only on the batch's shape -- the detrend's
centred index axis and its squared sum, the taper and its scale, and the
frequency axis -- is built once per ``n`` (or ``(n, interval)``, or
``(window, n)``) by a small ``lru_cache`` helper and shared read-only, so
a one-row call, which the adaptive controller makes for every window,
pays for its FFT and reductions rather than for rebuilding its axes.
Each cached array is the same expression on the same operands as before,
so no result changes by a bit.

The semantics match :meth:`NyquistEstimator.estimate` to rounding -- the
scalar path is kept as the reference and the equivalence is enforced by
``tests/core/test_batch.py``.  A row's bits depend neither on the batch
it arrives in nor on the input's memory layout.  Setups that count the
DC bin (``include_dc``, which no library code batches) run the scalar
path row by row instead.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..signals.timeseries import TimeSeries
from . import scratch
from .nyquist import (ALIASED_SENTINEL, MIN_SAMPLES, NON_FINITE_REASON, NyquistEstimate,
                      NyquistEstimator)
from .psd import WindowName, _rfft_frequencies, taper_energy, window_coefficients

__all__ = ["batch_estimate"]


def _rfft(values: np.ndarray, fft_workers: int | None = None) -> np.ndarray:
    """Row-wise rfft: numpy's pocketfft, or scipy's threaded one on request.

    ``fft_workers > 1`` maps to ``scipy.fft.rfft(workers=...)``, which
    parallelises the batch across rows without changing any row's result;
    scipy is imported only then, and without scipy the request is ignored.
    numpy's ``rfft`` equals scipy's bit for bit (both are pocketfft), so
    the single-threaded default never pays scipy's import.  The numpy
    spectrum is written into the ``"spectrum"`` scratch buffer; scipy's
    ``rfft`` takes no output array, so the threaded one is a fresh array.
    """
    if fft_workers is not None and fft_workers > 1:
        try:
            from scipy.fft import rfft as scipy_rfft
        except ImportError:  # scipy is optional; run single-threaded instead
            pass
        else:
            return scipy_rfft(values, axis=-1, workers=fft_workers)
    rows, n = values.shape
    return np.fft.rfft(values, axis=-1,
                       out=scratch.borrow("spectrum", (rows, n // 2 + 1), np.complex128))


def _unreliable(estimator: NyquistEstimator, current_rate: float, reason: str) -> NyquistEstimate:
    return NyquistEstimate(
        nyquist_rate=ALIASED_SENTINEL,
        cutoff_frequency=None,
        current_rate=current_rate,
        energy_fraction=estimator.energy_fraction,
        captured_fraction=0.0,
        total_energy=0.0,
        reliable=False,
        reason=reason,
    )


@lru_cache(maxsize=32)
def _detrend_axis(n: int) -> tuple[np.ndarray, float]:
    """The centred sample index ``0..n-1`` and its squared sum, read-only."""
    x = np.arange(n, dtype=np.float64)
    x_centered = x - x.mean()
    x_centered.flags.writeable = False
    return x_centered, float(np.sum(x_centered ** 2))


@lru_cache(maxsize=32)
def _taper_and_scale(window: WindowName, n: int) -> tuple[np.ndarray, float]:
    """The read-only taper of ``window`` at length ``n`` and its PSD scale ``n * energy``."""
    taper = window_coefficients(window, n)
    scale = n * taper_energy(taper)
    taper.flags.writeable = False
    return taper, scale


def _remove_linear_trend_rows(values: np.ndarray) -> np.ndarray:
    """Subtract each row's least-squares line (vectorised ``detrend``).

    The slope is a last-axis ``add.reduce``, not a matrix product: BLAS
    blocks ``@`` by row count, which would make a row's bits depend on
    the size of the batch it arrives in.  ``add.reduce`` and ``/ n`` are
    what ``np.sum`` and ``np.mean`` run, without their dispatch.
    """
    n = values.shape[-1]
    x_centered, denominator = _detrend_axis(n)
    row_means = np.add.reduce(values, axis=-1, keepdims=True) / n
    slopes = np.add.reduce((values - row_means) * x_centered, axis=-1) / denominator
    return values - row_means - slopes[:, None] * x_centered


def _constant_estimate(estimator: NyquistEstimator, current_rate: float,
                       duration: float) -> NyquistEstimate:
    # A constant metric needs (essentially) no sampling at all; report the
    # lowest rate the trace itself can witness: one sample per duration.
    lowest = 1.0 / duration
    return NyquistEstimate(
        nyquist_rate=lowest,
        cutoff_frequency=lowest / 2.0,
        current_rate=current_rate,
        energy_fraction=estimator.energy_fraction,
        captured_fraction=1.0,
        total_energy=0.0,
        reliable=True,
        reason="constant trace",
    )


#: Band-to-DC energy ratio below which a row is suspected of being
#: constant.  FFT round-off of a truly constant trace leaves a relative
#: non-DC residue of order ``bins * (n * eps)^2`` (~1e-21 for day-long
#: traces); any genuinely varying quantised trace sits many orders of
#: magnitude above this.
_CONSTANT_SUSPICION: float = 1e-16


def _fast_batch_estimate(matrix: np.ndarray, interval: float, estimator: NyquistEstimator,
                         fft_workers: int | None = None) -> list[NyquistEstimate]:
    """The vectorised engine of every DC-free setup: plain or tapered, detrended or not.

    Runs the FFT over every row up front and never materialises a
    doubled or normalised power matrix -- see the module docstring for why
    that is sound.  A taper multiplies the (detrended) rows before the
    ``rfft`` and sets the normalisation to ``n * taper_energy``.  The lazy
    constant check requires the rectangular window: a taper turns a
    constant trace into a varying one whose leakage energy is *not*
    round-off small, so tapered batches check every row's peak-to-peak.
    """
    rows, n = matrix.shape
    current_rate = 1.0 / interval
    duration = n * interval
    tapered = estimator.window != "rectangular"

    working_values = matrix
    if estimator.detrend:
        working_values = _remove_linear_trend_rows(working_values)
    if tapered:
        taper, scale = _taper_and_scale(estimator.window, n)
        working_values = working_values * taper
    else:
        scale = float(n) * float(n)

    spectrum = _rfft(working_values, fft_workers)
    power = np.abs(spectrum, out=scratch.borrow("power", spectrum.shape, np.float64))
    np.square(power, out=power)
    dc = power[:, 0]
    band = power[:, 1:]
    freqs = _rfft_frequencies(n, interval)[1:]
    bins = freqs.size

    cumulative = np.cumsum(band, axis=-1,
                           out=scratch.borrow("cumulative", band.shape, np.float64))
    totals = cumulative[:, -1].copy()

    # One-sided doubling, folded into per-row scalars: for odd n every
    # compared bin doubles (a no-op for ratios); for even n the Nyquist
    # bin is the only undoubled one, which shifts the energy target by
    # half of it.  ``doubled_totals`` is the sum the scalar path reports.
    threshold = estimator.energy_fraction - 1e-12
    if n % 2 == 0:
        nyquist_bin = band[:, -1]
        doubled_totals = 2.0 * totals - nyquist_bin
        targets = threshold * (totals - 0.5 * nyquist_bin)
    else:
        doubled_totals = 2.0 * totals
        targets = threshold * totals

    # For every row with positive energy the last cumulative value meets
    # the target (threshold <= 1), so argmax of the mask is exactly the
    # scalar searchsorted-and-clamp; zero-energy rows are handled below.
    cutoff_index = (cumulative >= targets[:, None]).argmax(axis=-1)
    cutoff_frequencies = freqs[cutoff_index]
    aliased = (cutoff_index >= bins - 1) | \
        (cutoff_frequencies > estimator.aliased_band_fraction * float(freqs[-1]))
    captured_energy = cumulative[np.arange(rows), cutoff_index]

    energy_fraction = estimator.energy_fraction
    aliased_list = aliased.tolist()
    totals_list = totals.tolist()
    doubled_list = doubled_totals.tolist()
    freq_list = cutoff_frequencies.tolist()
    captured_list = captured_energy.tolist()

    results: list[NyquistEstimate] = []
    for index in range(rows):
        raw_total = totals_list[index]
        if not math.isfinite(raw_total):
            results.append(_unreliable(estimator, current_rate, NON_FINITE_REASON))
            continue
        if raw_total <= 0:
            results.append(_unreliable(estimator, current_rate, "no spectral energy"))
            continue
        if aliased_list[index]:
            results.append(NyquistEstimate(
                nyquist_rate=ALIASED_SENTINEL,
                cutoff_frequency=None,
                current_rate=current_rate,
                energy_fraction=energy_fraction,
                captured_fraction=1.0,
                total_energy=doubled_list[index] / scale,
                reliable=False,
                reason="all bins needed",
            ))
            continue
        cutoff_frequency = freq_list[index]
        results.append(NyquistEstimate(
            nyquist_rate=2.0 * cutoff_frequency,
            cutoff_frequency=cutoff_frequency,
            current_rate=current_rate,
            energy_fraction=energy_fraction,
            captured_fraction=2.0 * captured_list[index] / doubled_list[index],
            total_energy=doubled_list[index] / scale,
            reliable=True,
        ))

    # Constant rows get the exact peak-to-peak check the scalar path
    # applies up front, on ``matrix`` (not the detrended copy) to match
    # its order of operations.  Without a taper only rows whose band
    # energy is round-off relative to DC can be constant, so only they
    # pay it.
    if tapered:
        constant = np.flatnonzero(np.ptp(matrix, axis=-1) == 0)
    else:
        suspects = np.flatnonzero(totals <= dc * _CONSTANT_SUSPICION)
        constant = suspects[np.ptp(matrix[suspects], axis=-1) == 0]
    for index in constant:
        results[index] = _constant_estimate(estimator, current_rate, duration)
    return results


def batch_estimate(values: np.ndarray, interval: float,
                   estimator: NyquistEstimator | None = None,
                   fft_workers: int | None = None) -> list[NyquistEstimate]:
    """Run the Section 3.2 estimator on every row of a trace matrix.

    Parameters
    ----------
    values:
        ``(rows, n)`` matrix; each row is one regularly sampled trace.
        All rows share the same length and sampling interval (group
        heterogeneous fleets with
        :meth:`repro.telemetry.dataset.FleetDataset.trace_batches`).
    interval:
        The common sampling interval in seconds (positive and finite).
    estimator:
        Estimator configuration; defaults to the paper's 99 % settings.
        Every knob (``energy_fraction``, ``include_dc``,
        ``aliased_band_fraction``, ``detrend``, ``window``) is honoured.
    fft_workers:
        Number of pocketfft worker threads for the batched ``rfft``
        (scipy's ``workers=``, imported only when this is above 1;
        ignored without scipy).  Parallelism is across rows, so the
        per-row results are unchanged; the default (``None``) keeps the
        FFT single-threaded, which is right for 1-CPU hosts and for
        surveys already parallelised across worker *processes*.

    Returns
    -------
    list[NyquistEstimate]
        One estimate per row, in row order, equal to what
        ``estimator.estimate`` would return for each trace individually
        (to rounding; bit for bit with ``include_dc``, which runs the
        scalar path per row).
    """
    estimator = estimator or NyquistEstimator()
    matrix = np.ascontiguousarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"values must be a 2-D (rows, samples) matrix, got shape {matrix.shape}")
    if not (math.isfinite(interval) and interval > 0):
        raise ValueError(f"interval must be a positive finite number, got {interval}")
    rows, n = matrix.shape
    if rows == 0:
        return []
    current_rate = 1.0 / interval

    if n < MIN_SAMPLES:
        rate = current_rate if n else float("nan")  # an empty trace has no rate, as in estimate
        return [_unreliable(estimator, rate, "trace too short") for _ in range(rows)]
    # From here every row has at least MIN_SAMPLES // 2 non-DC bins.

    if estimator.include_dc:
        return [estimator.estimate(TimeSeries(row, interval)) for row in matrix]
    return _fast_batch_estimate(matrix, interval, estimator, fft_workers)
