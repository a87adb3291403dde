"""Nyquist-rate estimation from a measured trace (the paper's Section 3.2 method).

The estimator:

(a) computes the FFT/PSD of the trace and the total energy (sum of the PSD
    across bins);
(b) accumulates per-bin power in ascending frequency order until 99 % of
    the total energy is captured;
(c) if *all* bins are needed, concludes the trace is probably already
    aliased and reports an unreliable estimate (the paper records -1);
(d) otherwise reports twice the cut-off frequency as the Nyquist rate.

The 99 % cut-off is a noise/quantisation workaround; it is configurable and
ablated in ``benchmarks/bench_ablation_energy_cutoff.py``.

Two execution paths share these semantics: :meth:`NyquistEstimator.estimate`
processes one trace at a time (the reference implementation), and
:meth:`NyquistEstimator.estimate_batch` delegates to
:mod:`repro.core.batch` to run the same steps over a whole ``(rows, n)``
matrix of equal-length traces with single vectorised numpy calls -- the
engine of the fleet survey, the Figure 7 windowed sweep and the adaptive
controller, equal to the reference to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..signals.spectrum import Spectrum
from ..signals.timeseries import IrregularTimeSeries, TimeSeries
from .psd import WINDOW_NAMES, WindowName, periodogram
from .resampling import regularize

__all__ = [
    "NyquistEstimate",
    "NyquistEstimator",
    "estimate_nyquist_rate",
    "ALIASED_SENTINEL",
    "NON_FINITE_REASON",
    "MIN_SAMPLES",
    "DEFAULT_ENERGY_FRACTION",
    "DEFAULT_ALIASED_BAND_FRACTION",
]

#: Value the paper records when the estimator cannot produce a reliable
#: rate because the trace appears to be aliased already.
ALIASED_SENTINEL: float = -1.0

#: ``reason`` of the unreliable estimate every path returns for a trace
#: whose spectral energy is not finite -- a ``nan`` or ``inf`` sample.
#: Its energy cut-off would otherwise land on the bottom bin and report
#: the trace as massively over-sampled.
NON_FINITE_REASON: str = "non-finite spectral energy"

#: Fewest samples a trace (or probe stream) needs for a spectral verdict.
#: Shorter traces are refused as unreliable ("trace too short") rather
#: than producing a meaningless few-bin estimate; the dual-rate detector
#: and the adaptive controller's rate floor use the same bound.
MIN_SAMPLES: int = 16

#: Default share of total (non-DC) energy that must be captured below the
#: cut-off frequency.  This is the paper's 99 % knob.
DEFAULT_ENERGY_FRACTION: float = 0.99

#: Default fraction of the measurable band edge above which an energy
#: cut-off means "probably already aliased".  The paper's literal rule is
#: "all bins needed" (1.0), but with measurement noise present the 99 %
#: cut-off of a genuinely full-band trace lands one or two bins *short*
#: of the edge and the strict rule never fires: on day-length synthetic
#: survey traces, planted broadband pairs all came back as reliable
#: marginal estimates instead of the paper's "record -1".  0.9 is
#: calibrated on those planted broadband pairs: every full-band
#: continuous trace is refused while clean band-limited pairs (whose
#: drawn bandwidth tops out at 0.8x the band edge) are untouched.
DEFAULT_ALIASED_BAND_FRACTION: float = 0.9


@dataclass(frozen=True)
class NyquistEstimate:
    """Result of running the Section 3.2 estimator on one trace.

    Attributes
    ----------
    nyquist_rate:
        Estimated Nyquist rate in Hz, or :data:`ALIASED_SENTINEL` (-1.0)
        when the estimate is unreliable.
    cutoff_frequency:
        The frequency below which ``energy_fraction`` of the signal energy
        lies (``None`` when unreliable).
    current_rate:
        The rate at which the trace was actually sampled.
    energy_fraction:
        The energy threshold that was used (0.99 by default).
    captured_fraction:
        The fraction of energy actually captured at the cut-off bin.
    total_energy:
        Total (non-DC unless ``include_dc``) energy of the trace's PSD.
    reliable:
        True when the estimator believes the trace was sampled above its
        Nyquist rate and the estimate can be trusted.
    reason:
        Short human-readable explanation when ``reliable`` is False.
    """

    nyquist_rate: float
    cutoff_frequency: float | None
    current_rate: float
    energy_fraction: float
    captured_fraction: float
    total_energy: float
    reliable: bool
    reason: str = ""

    @property
    def reduction_ratio(self) -> float:
        """How much less often the metric could be sampled (current / Nyquist).

        Values above 1 mean the metric is over-sampled today (a ratio of 10
        means 10x over-sampling); values below 1 mean it is under-sampled.
        Returns ``nan`` when the estimate is unreliable.
        """
        if not self.reliable or self.nyquist_rate <= 0:
            return float("nan")
        return self.current_rate / self.nyquist_rate


class NyquistEstimator:
    """The paper's Nyquist-rate estimator, in the setups the library runs.

    The fleet survey uses the defaults (the plain periodogram with the
    calibrated band rule); the adaptive controller and the Figure 7
    windowed survey use ``detrend=True, window="hann",
    aliased_band_fraction=1.0`` for short windows.  Traces shorter than
    :data:`MIN_SAMPLES` are refused as unreliable, and a trace whose
    samples are all equal is "constant": it gets a Nyquist rate of one
    cycle per trace duration (the lowest rate observable from the data)
    rather than a noise-driven estimate.

    Parameters
    ----------
    energy_fraction:
        Share of total energy that must be captured below the cut-off
        frequency (paper default 0.99).
    include_dc:
        Whether the DC bin participates in energy accounting.  The paper
        sums "across all FFT bins"; we exclude DC by default because a
        constant offset carries no information about how fast a metric
        changes and would otherwise dominate the total for any metric with
        a large mean (ablated in ``benchmarks/bench_ablation_energy_cutoff.py``).
    aliased_band_fraction:
        If the energy cut-off lands above this fraction of the measurable
        band edge (``sampling_rate / 2``), the trace is treated as
        "probably already aliased" even if the very last bin was not
        strictly required.  The paper's criterion is "all bins needed";
        with measurement noise present, energy reaching (essentially) the
        band edge carries the same meaning.  The default
        (:data:`DEFAULT_ALIASED_BAND_FRACTION`, 0.9) is calibrated so the
        paper's "record -1" behaviour reproduces on noisy full-band
        traces; pass 1.0 to restore the literal "all bins needed" rule.
    detrend:
        Remove the mean and the best-fit linear trend before the FFT.  A
        slow trend that does not complete a cycle inside the analysis
        window leaks energy across many bins and inflates the estimate;
        detrending suppresses that leakage.  Off by default (the paper's
        survey analyses full-day traces where leakage is minor); the
        adaptive controller turns it on because it works on short windows.
    window:
        Taper applied before the FFT: "rectangular" (the plain FFT) or
        "hann", which further reduces leakage at the cost of a slightly
        wider main lobe.  Any other name is refused here.
    """

    #: Shortest trace the estimator accepts (:data:`MIN_SAMPLES`).
    min_samples: int = MIN_SAMPLES

    def __init__(self,
                 energy_fraction: float = DEFAULT_ENERGY_FRACTION,
                 include_dc: bool = False,
                 aliased_band_fraction: float = DEFAULT_ALIASED_BAND_FRACTION,
                 detrend: bool = False,
                 window: WindowName = "rectangular") -> None:
        if not 0 < energy_fraction <= 1:
            raise ValueError("energy_fraction must be in (0, 1]")
        if not 0 < aliased_band_fraction <= 1:
            raise ValueError("aliased_band_fraction must be in (0, 1]")
        if window not in WINDOW_NAMES:
            raise ValueError(f"unknown window {window!r}; choose from {list(WINDOW_NAMES)}")
        self.energy_fraction = energy_fraction
        self.include_dc = include_dc
        self.aliased_band_fraction = aliased_band_fraction
        self.detrend = detrend
        self.window = window

    def cache_token(self) -> str:
        """Canonical parameter string for content-addressed record caching.

        Two estimators with equal tokens produce byte-identical survey
        records for the same traces; any parameter change changes the
        token (and therefore every :class:`~repro.records.PairFingerprint`
        built from it).  The PSD method, the minimum length and the flat
        tolerance were options once; the token still spells them as it did
        then, so record stores filled back then keep hitting.
        """
        fixed = f"psd_method='periodogram', min_samples={MIN_SAMPLES!r}, flat_tolerance=0.0"
        return (f"{type(self).__name__}(energy_fraction={self.energy_fraction!r}, "
                f"include_dc={self.include_dc!r}, {fixed}, "
                f"aliased_band_fraction={self.aliased_band_fraction!r}, "
                f"detrend={self.detrend!r}, window={self.window!r})")

    # ------------------------------------------------------------------
    def compute_spectrum(self, series: TimeSeries) -> Spectrum:
        """Periodogram of ``series`` (detrended first when configured)."""
        if self.detrend:
            series = _remove_linear_trend(series)
        return periodogram(series, window=self.window)

    def estimate(self, series: TimeSeries | IrregularTimeSeries) -> NyquistEstimate:
        """Run the estimator on a trace.

        Irregular traces are pre-cleaned with nearest-neighbour re-sampling
        first, exactly as Section 3.2 prescribes.
        """
        if isinstance(series, IrregularTimeSeries):
            series = regularize(series)
        if len(series) < MIN_SAMPLES:
            return self._unreliable(series.sampling_rate if len(series) else float("nan"),
                                    reason="trace too short")

        if series.value_range() == 0:
            # A constant metric needs (essentially) no sampling at all; we
            # report the lowest rate the trace itself can witness: one
            # sample per trace duration.
            lowest = 1.0 / series.duration
            return NyquistEstimate(
                nyquist_rate=lowest,
                cutoff_frequency=lowest / 2.0,
                current_rate=series.sampling_rate,
                energy_fraction=self.energy_fraction,
                captured_fraction=1.0,
                total_energy=0.0,
                reliable=True,
                reason="constant trace",
            )

        spectrum = self.compute_spectrum(series)
        return self.estimate_from_spectrum(spectrum, current_rate=series.sampling_rate)

    def estimate_batch(self, values: np.ndarray, interval: float,
                       fft_workers: int | None = None) -> list[NyquistEstimate]:
        """Run the estimator over every row of a ``(rows, n)`` trace matrix.

        All rows must share one length and one sampling ``interval``
        (group heterogeneous fleets with
        :meth:`repro.telemetry.dataset.FleetDataset.trace_batches`).
        Produces, to rounding, the estimates :meth:`estimate` gives each
        row, but computes the PSDs with a single ``rfft(axis=-1)`` call
        and the energy cut-offs with one batched ``cumsum``/``argmax`` --
        see :mod:`repro.core.batch`.  A row's bits depend neither on the
        batch nor on the matrix's memory layout.  ``fft_workers`` spreads
        that ``rfft`` over scipy pocketfft threads (row-parallel, so
        results are unchanged); scipy is optional and imported only then,
        and without it the request is ignored.
        """
        from .batch import batch_estimate  # local import: batch builds on this module

        return batch_estimate(values, interval, estimator=self, fft_workers=fft_workers)

    def estimate_from_spectrum(self, spectrum: Spectrum,
                               current_rate: float | None = None) -> NyquistEstimate:
        """Run steps (a)-(d) on an already-computed PSD."""
        rate = current_rate if current_rate is not None else spectrum.sampling_rate
        working = spectrum if self.include_dc else spectrum.without_dc()
        total = float(np.sum(working.power))
        if not math.isfinite(total):
            return self._unreliable(rate, reason=NON_FINITE_REASON)
        if total <= 0 or len(working) == 0:
            return self._unreliable(rate, reason="no spectral energy")
        frequencies = working.frequencies
        cumulative = np.cumsum(working.power) / total
        bins = len(frequencies)
        cutoff_index = int(np.searchsorted(cumulative, self.energy_fraction - 1e-12))
        cutoff_index = min(cutoff_index, bins - 1)

        band_edge = float(frequencies[-1])
        if (cutoff_index >= bins - 1
                or frequencies[cutoff_index] > self.aliased_band_fraction * band_edge):
            # All bins (or essentially all of the band) were needed: the
            # energy extends to the edge of the measurable band, which is
            # the signature of a trace that was already aliased when it was
            # collected (step (b) failure case -> record -1).
            return NyquistEstimate(
                nyquist_rate=ALIASED_SENTINEL,
                cutoff_frequency=None,
                current_rate=rate,
                energy_fraction=self.energy_fraction,
                captured_fraction=float(cumulative[-1]),
                total_energy=total,
                reliable=False,
                reason="all bins needed",
            )

        cutoff_frequency = float(frequencies[cutoff_index])
        if cutoff_frequency <= 0:
            # All interesting energy is in the first (lowest) bin; the best
            # statement the data supports is "at most one cycle per trace".
            # (A one-bin spectrum always takes the branch above, so there
            # are two bins to take the resolution from.)
            cutoff_frequency = float(frequencies[0]) or float(frequencies[1] - frequencies[0])
        nyquist_rate = 2.0 * cutoff_frequency
        return NyquistEstimate(
            nyquist_rate=nyquist_rate,
            cutoff_frequency=cutoff_frequency,
            current_rate=rate,
            energy_fraction=self.energy_fraction,
            captured_fraction=float(cumulative[cutoff_index]),
            total_energy=total,
            reliable=True,
        )

    # ------------------------------------------------------------------
    def _unreliable(self, current_rate: float, reason: str) -> NyquistEstimate:
        return NyquistEstimate(
            nyquist_rate=ALIASED_SENTINEL,
            cutoff_frequency=None,
            current_rate=current_rate,
            energy_fraction=self.energy_fraction,
            captured_fraction=0.0,
            total_energy=0.0,
            reliable=False,
            reason=reason,
        )


def estimate_nyquist_rate(series: TimeSeries | IrregularTimeSeries,
                          energy_fraction: float = DEFAULT_ENERGY_FRACTION) -> NyquistEstimate:
    """Convenience wrapper around :class:`NyquistEstimator` with default settings."""
    return NyquistEstimator(energy_fraction=energy_fraction).estimate(series)


def _remove_linear_trend(series: TimeSeries) -> TimeSeries:
    """Subtract the least-squares linear fit from a series (used by ``detrend``)."""
    if len(series) < 2:
        return series
    return series.with_values(detrended(series.values))


def detrended(values: np.ndarray) -> np.ndarray:
    """``values`` minus its least-squares line (``np.polyfit`` of degree 1)."""
    x = np.arange(values.shape[-1], dtype=np.float64)
    return values - np.polyval(np.polyfit(x, values, 1), x)
