"""Aliasing detection with dual-frequency sampling (Section 4.1).

Following Penny et al. (the paper's reference [19]), the detector samples
the same underlying signal at two rates ``f1 > f2`` whose ratio is not an
integer.  If the signal contains frequency components above ``f2 / 2``,
those components fold ("alias") to *different* apparent frequencies in the
two spectra, so the spectra disagree below ``f2 / 2`` -- whereas a signal
that both rates capture cleanly produces matching spectra there.  Small
discrepancies caused by measurement noise are filtered with a noise-floor
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..signals.noise import noise_floor_estimates
from ..signals.spectrum import Spectrum, SpectrumBatch
from ..signals.timeseries import TimeSeries
from .nyquist import MIN_SAMPLES
from .psd import batch_periodogram

__all__ = [
    "AliasingVerdict",
    "DualRateAliasingDetector",
    "compare_spectra",
    "compare_spectra_batch",
]

#: Default ratio between the fast and slow probe rates.  1.6 is neither an
#: integer nor does the slow rate divide the fast one, as §4.1 requires.
DEFAULT_RATE_RATIO: float = 1.6


@dataclass(frozen=True)
class AliasingVerdict:
    """Outcome of a dual-frequency aliasing check.

    Attributes
    ----------
    aliased:
        True when the comparison indicates frequency content above half the
        slower probe rate (i.e. the slower rate would lose information).
    discrepancy:
        Normalised spectral discrepancy between the two probes in the
        common band (0 = identical spectra).
    threshold:
        The decision threshold the discrepancy was compared against.
    slow_rate, fast_rate:
        The two probe sampling rates that were compared.
    common_band_hz:
        Upper edge of the frequency band over which the spectra were
        compared (half the slower rate).
    """

    aliased: bool
    discrepancy: float
    threshold: float
    slow_rate: float
    fast_rate: float
    common_band_hz: float


def compare_spectra(slow: Spectrum, fast: Spectrum) -> tuple[float, float]:
    """Compare two PSDs over their common band.

    Returns ``(discrepancy, band_edge)`` where ``discrepancy`` is the mean
    absolute difference of the (energy-normalised) spectra over the band
    ``(0, band_edge]``, after subtracting each spectrum's noise floor (its
    median bin power) from it.  Normalising by total in-band energy makes
    the number comparable across metrics with wildly different magnitudes.
    This is the one-row case of :func:`compare_spectra_batch`.
    """
    discrepancy, band_edge = compare_spectra_batch(
        SpectrumBatch(slow.frequencies, slow.power[None, :], slow.sampling_rate),
        SpectrumBatch(fast.frequencies, fast.power[None, :], fast.sampling_rate))
    return float(discrepancy[0]), band_edge


def compare_spectra_batch(slow: SpectrumBatch, fast: SpectrumBatch) -> tuple[np.ndarray, float]:
    """Row-wise :func:`compare_spectra`: row ``i`` of ``slow`` against row ``i`` of ``fast``.

    Both batches share their frequency grids across rows, so the common
    band and comparison grid are computed once.  The side whose own bins
    are the grid is used as it is, since ``np.interp`` returns ``fp[j]``
    at ``x == xp[j]``; only the other side is interpolated.  The noise
    floors are one batched partition (:func:`noise_floor_estimates`)
    and every sum runs along the last axis of a C-contiguous matrix,
    which keeps each row bit-for-bit equal to a one-row comparison.
    Returns ``(discrepancies, band_edge)``.
    """
    if len(slow) != len(fast):
        raise ValueError(f"row counts differ: {len(slow)} slow vs {len(fast)} fast spectra")
    band_edge = min(slow.max_frequency, fast.max_frequency)
    slow_band = slow.without_dc().band(0.0, band_edge)
    fast_band = fast.without_dc().band(0.0, band_edge)
    if slow_band.bins == 0 or fast_band.bins == 0:
        return np.zeros(len(slow)), band_edge

    # Compare on the coarser of the two grids so neither spectrum is
    # extrapolated beyond its resolution.
    if slow_band.bins <= fast_band.bins:
        slow_power = slow_band.power
        fast_power = fast_band.interpolate_power(slow_band.frequencies)
    else:
        slow_power = slow_band.interpolate_power(fast_band.frequencies)
        fast_power = fast_band.power

    slow_floor = noise_floor_estimates(slow_power)
    fast_floor = noise_floor_estimates(fast_power)
    slow_clean = np.maximum(slow_power - slow_floor[:, None], 0.0)
    fast_clean = np.maximum(fast_power - fast_floor[:, None], 0.0)

    slow_total = np.sum(slow_clean, axis=-1)
    fast_total = np.sum(fast_clean, axis=-1)
    # Normalise each spectrum to unit energy before differencing so a pure
    # amplitude difference (e.g. window scalloping) does not register as
    # aliasing; only *where* the energy sits matters.
    slow_norm = slow_clean / np.where(slow_total == 0, 1.0, slow_total)[:, None]
    fast_norm = fast_clean / np.where(fast_total == 0, 1.0, fast_total)[:, None]
    discrepancy = 0.5 * np.sum(np.abs(slow_norm - fast_norm), axis=-1)
    return np.where(slow_total + fast_total <= 0, 0.0, discrepancy), band_edge


class DualRateAliasingDetector:
    """Penny-style aliasing detector.

    Parameters
    ----------
    rate_ratio:
        Ratio ``f1 / f2`` between the fast and slow probe rates; must be
        greater than 1 and should not be an integer (and the slow rate must
        not divide the fast rate) or aliased components can fold onto the
        same apparent frequency in both spectra and go undetected.
    threshold:
        Discrepancy above which the verdict is "aliased".  The discrepancy
        is a total-variation style distance in [0, 1]; the default of 0.1
        tolerates noise and mild spectral-estimation differences.

    Each spectrum's noise floor is its median bin power.  A probe stream
    shorter than :data:`~repro.core.nyquist.MIN_SAMPLES` samples gives
    no evidence either way, so such a pair is reported "not aliased"
    rather than decided by a coin flip on two noisy few-bin spectra.
    """

    def __init__(self, rate_ratio: float = DEFAULT_RATE_RATIO,
                 threshold: float = 0.1) -> None:
        if rate_ratio <= 1.0:
            raise ValueError("rate_ratio must be > 1")
        if math.isclose(rate_ratio, round(rate_ratio), abs_tol=1e-9):
            raise ValueError("rate_ratio must not be an integer (see §4.1)")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.rate_ratio = rate_ratio
        self.threshold = threshold

    # ------------------------------------------------------------------
    def probe_rates(self, slow_rate: float) -> tuple[float, float]:
        """Return ``(slow_rate, fast_rate)`` for a candidate sampling rate."""
        if slow_rate <= 0:
            raise ValueError("slow_rate must be positive")
        return slow_rate, slow_rate * self.rate_ratio

    def check_samples(self, slow: TimeSeries, fast: TimeSeries) -> AliasingVerdict:
        """Compare two already-collected probe traces of the same signal.

        The one-row case of :meth:`check_rows`.
        """
        aliased, discrepancy, band_edge = self.check_rows(
            slow.values[None, :], slow.interval, fast.values[None, :], fast.interval)
        if slow.sampling_rate >= fast.sampling_rate:
            slow, fast = fast, slow
        return AliasingVerdict(
            aliased=bool(aliased[0]),
            discrepancy=float(discrepancy[0]),
            threshold=self.threshold,
            slow_rate=slow.sampling_rate,
            fast_rate=fast.sampling_rate,
            common_band_hz=band_edge,
        )

    def check_rows(self, slow: np.ndarray, slow_interval: float,
                   fast: np.ndarray, fast_interval: float
                   ) -> tuple[np.ndarray, np.ndarray, float]:
        """Row-batched :meth:`check_samples` over two ``(rows, m)`` probe matrices.

        Row ``i`` of ``slow`` (sampled every ``slow_interval`` s) and row
        ``i`` of ``fast`` are two probe streams of the same signal.  Each
        stream's periodograms are one ``rfft(axis=-1)``; the comparison is
        :func:`compare_spectra_batch`.  Returns ``(aliased, discrepancy,
        band_edge)`` with one verdict per row.
        """
        if slow.ndim != 2 or fast.ndim != 2 or slow.shape[0] != fast.shape[0]:
            raise ValueError(f"probe streams must be (rows, m) matrices with equal row "
                             f"counts, got shapes {slow.shape} and {fast.shape}")
        if 1.0 / slow_interval >= 1.0 / fast_interval:
            slow, slow_interval, fast, fast_interval = fast, fast_interval, slow, slow_interval
        rows = slow.shape[0]
        if slow.shape[1] < MIN_SAMPLES or fast.shape[1] < MIN_SAMPLES:
            # Not enough data to say anything: report "not aliased" with
            # zero confidence rather than raising, so the adaptive
            # controller can simply keep probing.
            return np.zeros(rows, dtype=bool), np.zeros(rows), 1.0 / slow_interval / 2.0
        discrepancy, band_edge = compare_spectra_batch(
            batch_periodogram(slow, slow_interval), batch_periodogram(fast, fast_interval))
        return discrepancy > self.threshold, discrepancy, band_edge
