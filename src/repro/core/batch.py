"""Batched Nyquist estimation: the Section 3.2 method over many traces at once.

The fleet survey runs the same estimator over thousands of (metric,
device) pairs.  Doing that one trace at a time spends most of its wall
clock in Python overhead rather than in the FFT; this module instead
accepts a ``(rows, n)`` matrix of equal-length, equal-interval traces and
performs every stage of the estimator as one vectorised numpy operation:

* constant-trace detection  -- per-row peak-to-peak over the matrix;
* optional linear detrend   -- one closed-form least-squares fit per row;
* the PSD                   -- a single ``rfft(axis=-1)`` call for the
  whole batch (scipy's pocketfft when available, numpy otherwise);
* the 99 % energy cut-off   -- ``np.cumsum`` + ``argmax`` over the batch.

Only the final wrap into per-trace :class:`~repro.core.nyquist.NyquistEstimate`
objects is a Python loop, which is O(rows) rather than O(rows x n).

The default survey configuration (rectangular-window periodogram PSD, DC
excluded, ``flat_tolerance`` 0) takes a further-optimised fast path built
on three algebraic shortcuts, none of which changes results:

* the energy comparison is done against per-row raw (unscaled) power --
  the cut-off index only depends on energy *ratios*, so the PSD
  normalisation is applied afterwards to the handful of per-row scalars
  that are reported;
* the one-sided doubling of interior bins multiplies every compared bin
  by the same factor (odd ``n``) or is folded into the per-row energy
  target (even ``n``, where only the Nyquist bin is not doubled), so no
  full-matrix doubling pass is needed;
* constant traces are detected lazily: a constant row's non-DC energy is
  pure FFT round-off (~``(n*eps)^2`` relative to DC), so only rows whose
  band energy is vanishingly small relative to their DC bin pay the exact
  peak-to-peak check, instead of scanning the whole matrix up front.

The semantics match :meth:`NyquistEstimator.estimate` -- the scalar path
is kept as the reference backend and the equivalence is enforced by
``tests/core/test_batch.py``.
"""

from __future__ import annotations

import numpy as np

try:  # scipy's pocketfft is measurably faster; numpy is the fallback.
    from scipy.fft import rfft as _scipy_rfft

    def _rfft(values: np.ndarray, fft_workers: int | None = None) -> np.ndarray:
        """Row-wise rfft, optionally spread over pocketfft worker threads.

        ``fft_workers`` maps to scipy's ``workers=`` argument, which
        parallelises the batch across rows without changing any row's
        result (each row's transform is still computed by the same code).
        """
        if fft_workers is not None and fft_workers > 1:
            return _scipy_rfft(values, axis=-1, workers=fft_workers)
        return _scipy_rfft(values, axis=-1)
except ImportError:  # pragma: no cover - exercised only without scipy
    def _rfft(values: np.ndarray, fft_workers: int | None = None) -> np.ndarray:
        return np.fft.rfft(values, axis=-1)

from ..signals.timeseries import TimeSeries
from .nyquist import ALIASED_SENTINEL, NyquistEstimate, NyquistEstimator, detrended
from .psd import batch_periodogram, batch_welch_psd, taper_energy, window_coefficients

__all__ = ["batch_estimate", "exact_batch_estimate"]


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


def _constant_mask(values: np.ndarray, estimator: NyquistEstimator) -> np.ndarray:
    """Per-row version of ``NyquistEstimator._is_effectively_constant``."""
    spread = np.ptp(values, axis=-1)
    constant = spread == 0
    if estimator.flat_tolerance > 0:
        scale = np.abs(np.mean(values, axis=-1))
        scale = np.where(scale == 0, 1.0, scale)
        constant |= (spread / scale) < estimator.flat_tolerance
    return constant


def _remove_linear_trend_rows(values: np.ndarray) -> np.ndarray:
    """Subtract each row's least-squares line (vectorised ``detrend``)."""
    n = values.shape[-1]
    if n < 2:
        return values
    x = np.arange(n, dtype=np.float64)
    x_centered = x - x.mean()
    denominator = float(np.sum(x_centered ** 2))
    row_means = np.mean(values, axis=-1, keepdims=True)
    slopes = (values - row_means) @ x_centered / denominator
    return values - row_means - slopes[:, None] * x_centered


def _batch_power(values: np.ndarray, interval: float, estimator: NyquistEstimator,
                 fft_workers: int | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """Raw one-sided power of every row plus the deferred normalisation.

    Returns ``(power, frequencies, scale)`` where ``power / scale`` is the
    physically normalised PSD the scalar path computes.  The division is
    left to the caller because the energy cut-off depends only on ratios.
    """
    n = values.shape[-1]
    if estimator.psd_method == "periodogram":
        if estimator.window == "rectangular":
            tapered, taper_power = values, float(n)
        else:
            taper = window_coefficients(estimator.window, n)
            tapered, taper_power = values * taper, taper_energy(taper)
        power = np.abs(_rfft(tapered, fft_workers))
        np.square(power, out=power)
        if n % 2 == 0:
            power[:, 1:-1] *= 2.0
        else:
            power[:, 1:] *= 2.0
        return power, np.fft.rfftfreq(n, d=interval), n * taper_power
    if estimator.psd_method == "welch":
        window = estimator.window if estimator.window != "rectangular" else "hann"
        batch = batch_welch_psd(values, interval, window=window)
        return batch.power, batch.frequencies, 1.0
    raise ValueError(f"unknown psd_method {estimator.psd_method!r}")


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
    """Hot path for the survey defaults: rectangular-window periodogram, DC excluded.

    Runs the FFT over every row up front (constant rows are found from
    their vanishing band energy afterwards, avoiding a full-matrix
    peak-to-peak pass) and never materialises a doubled or normalised
    power matrix -- see the module docstring for why that is sound.  The
    lazy constant check requires the rectangular window: a taper turns a
    constant trace into a varying one whose leakage energy is *not*
    round-off small, so tapered configurations use the generic path.
    """
    rows, n = matrix.shape
    current_rate = 1.0 / interval
    duration = n * interval

    working_values = matrix
    if estimator.detrend:
        working_values = _remove_linear_trend_rows(working_values)
    scale = float(n) * float(n)

    power = np.abs(_rfft(working_values, fft_workers))
    np.square(power, out=power)
    dc = power[:, 0]
    band = power[:, 1:]
    freqs = np.fft.rfftfreq(n, d=interval)[1:]
    bins = freqs.size
    if bins == 0:
        return [_unreliable(estimator, current_rate, "no spectral energy") for _ in range(rows)]

    cumulative = np.cumsum(band, axis=-1)
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

    # Lazy constant detection: only rows whose band energy is round-off
    # relative to DC pay the exact peak-to-peak check the scalar path
    # applies up front.  ``matrix`` (not the detrended copy) is checked,
    # matching the scalar order of operations.
    suspicious = totals <= dc * _CONSTANT_SUSPICION
    if suspicious.any():
        for index in np.flatnonzero(suspicious):
            if np.ptp(matrix[index]) == 0:
                results[index] = _constant_estimate(estimator, current_rate, duration)
    return results


def exact_batch_estimate(values: np.ndarray, interval: float,
                         estimator: NyquistEstimator) -> list[NyquistEstimate]:
    """The scalar estimator's own arithmetic, run over every row of a trace matrix.

    :func:`batch_estimate` is faster but equal to
    :meth:`NyquistEstimator.estimate` only to rounding (closed-form
    detrend, deferred normalisation), which is fine for the survey but not
    for a feedback loop whose next sampling rate depends on the estimate.
    Here every step either runs per row exactly as the scalar path does
    (the ``np.polyfit`` detrend, the cut-off search) or is an elementwise
    operation / last-axis reduction over a C-contiguous matrix (taper,
    ``rfft``, power, energy sums, cumulative energy), whose rows are bit
    for bit the one-dimensional results.  So row ``i`` of the result *is*
    ``estimator.estimate(TimeSeries(values[i], interval))``.  Welch PSDs
    run row by row through the scalar path.
    """
    matrix = np.ascontiguousarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"values must be a 2-D (rows, samples) matrix, got shape {matrix.shape}")
    if interval <= 0:
        raise ValueError("interval must be positive")
    rows, n = matrix.shape
    current_rate = 1.0 / interval
    if n < estimator.min_samples:
        rate = current_rate if n else float("nan")
        return [_unreliable(estimator, rate, "trace too short") for _ in range(rows)]
    if estimator.psd_method != "periodogram":
        return [estimator.estimate(TimeSeries(row, interval)) for row in matrix]

    constant = _constant_mask(matrix, estimator)
    results: list[NyquistEstimate | None] = [None] * rows
    for index in np.flatnonzero(constant):
        results[index] = _constant_estimate(estimator, current_rate, n * interval)
    active = np.flatnonzero(~constant)
    if active.size:
        working = matrix[active]
        if estimator.detrend:
            for row in working:
                row[:] = detrended(row)
        spectra = batch_periodogram(working, interval, window=estimator.window)
        if not estimator.include_dc:
            spectra = spectra.without_dc()
        totals = np.sum(spectra.power, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cumulative = np.cumsum(spectra.power, axis=-1) / totals[:, None]
        for position, index in enumerate(active):
            total = float(totals[position])
            if total <= 0 or spectra.bins == 0:
                results[index] = _unreliable(estimator, current_rate, "no spectral energy")
            else:
                results[index] = estimator.estimate_from_cumulative(
                    spectra.frequencies, cumulative[position], total, current_rate)
    return results  # type: ignore[return-value]


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
        The common sampling interval in seconds.
    estimator:
        Estimator configuration; defaults to the paper's 99 % settings.
        Every knob (``energy_fraction``, ``include_dc``, ``psd_method``,
        ``min_samples``, ``flat_tolerance``, ``aliased_band_fraction``,
        ``detrend``, ``window``) is honoured.
    fft_workers:
        Number of pocketfft worker threads for the batched ``rfft``
        (scipy's ``workers=``; ignored under the numpy fallback and for
        the Welch path).  Parallelism is across rows, so the per-row
        results are unchanged; the default (``None``) keeps the FFT
        single-threaded, which is right for 1-CPU hosts and for surveys
        already parallelised across worker *processes*.

    Returns
    -------
    list[NyquistEstimate]
        One estimate per row, in row order, equal to what
        ``estimator.estimate`` would return for each trace individually.
    """
    estimator = estimator or NyquistEstimator()
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"values must be a 2-D (rows, samples) matrix, got shape {matrix.shape}")
    if interval <= 0:
        raise ValueError("interval must be positive")
    rows, n = matrix.shape
    if rows == 0:
        return []
    current_rate = 1.0 / interval

    if n < estimator.min_samples:
        return [_unreliable(estimator, current_rate, "trace too short") for _ in range(rows)]

    if (estimator.psd_method == "periodogram" and estimator.window == "rectangular"
            and not estimator.include_dc and estimator.flat_tolerance == 0):
        return _fast_batch_estimate(matrix, interval, estimator, fft_workers)

    constant = _constant_mask(matrix, estimator)
    results: list[NyquistEstimate | None] = [None] * rows
    duration = n * interval
    for index in np.flatnonzero(constant):
        results[index] = _constant_estimate(estimator, current_rate, duration)

    all_active = not constant.any()
    active = np.arange(rows) if all_active else np.flatnonzero(~constant)
    if active.size == 0:
        return results  # type: ignore[return-value]
    working_values = matrix if all_active else matrix[active]
    if estimator.detrend:
        working_values = _remove_linear_trend_rows(working_values)

    power, all_freqs, scale = _batch_power(working_values, interval, estimator, fft_workers)
    if estimator.include_dc or (all_freqs.size and all_freqs[0] != 0.0):
        band_power, freqs = power, all_freqs
    else:
        band_power, freqs = power[:, 1:], all_freqs[1:]
    bins = freqs.size

    if bins == 0:
        for index in active:
            results[index] = _unreliable(estimator, current_rate, "no spectral energy")
        return results  # type: ignore[return-value]

    # Energy cut-off for the whole batch at once.  ``argmax`` of the >=
    # mask is ``searchsorted`` on each row's (non-decreasing) cumulative
    # energy; rows where rounding keeps the captured share below the
    # threshold fall through to the last bin, exactly like the scalar
    # clamp.  Comparing raw cumulative energy against a per-row target
    # avoids normalising the whole matrix.
    totals = np.sum(band_power, axis=-1)
    cumulative = np.cumsum(band_power, axis=-1)
    targets = (estimator.energy_fraction - 1e-12) * totals
    reached = cumulative >= targets[:, None]
    cutoff_index = np.where(reached.any(axis=-1), reached.argmax(axis=-1), bins - 1)

    band_edge = float(freqs[-1])
    cutoff_frequencies = freqs[cutoff_index]
    aliased = (cutoff_index >= bins - 1) | \
        (cutoff_frequencies > estimator.aliased_band_fraction * band_edge)
    captured_energy = cumulative[np.arange(active.size), cutoff_index]
    resolution = float(freqs[1] - freqs[0]) if bins >= 2 else current_rate / 2.0

    for position, index in enumerate(active):
        raw_total = float(totals[position])
        if raw_total <= 0:
            results[index] = _unreliable(estimator, current_rate, "no spectral energy")
            continue
        if aliased[position]:
            results[index] = NyquistEstimate(
                nyquist_rate=ALIASED_SENTINEL,
                cutoff_frequency=None,
                current_rate=current_rate,
                energy_fraction=estimator.energy_fraction,
                captured_fraction=float(cumulative[position, -1]) / raw_total,
                total_energy=raw_total / scale,
                reliable=False,
                reason="all bins needed",
            )
            continue
        cutoff_frequency = float(cutoff_frequencies[position])
        if cutoff_frequency <= 0:
            # All interesting energy is in the first (lowest) bin; the best
            # statement the data supports is "at most one cycle per trace".
            cutoff_frequency = float(freqs[0]) or resolution
        results[index] = NyquistEstimate(
            nyquist_rate=2.0 * cutoff_frequency,
            cutoff_frequency=cutoff_frequency,
            current_rate=current_rate,
            energy_fraction=estimator.energy_fraction,
            captured_fraction=float(captured_energy[position]) / raw_total,
            total_energy=raw_total / scale,
            reliable=True,
        )
    return results  # type: ignore[return-value]
