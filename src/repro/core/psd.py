"""Power-spectral-density estimation.

Section 3.2 of the paper computes, for each trace, "the FFT and ... the
total energy in the signal -- the sum of the PSD across all FFT bins".
:func:`periodogram` implements that single-FFT estimate; :func:`welch_psd`
provides the standard averaged variant for very noisy traces (both return
:class:`repro.signals.Spectrum`, which the Nyquist estimator consumes).

The survey runs the same estimate over thousands of traces at once, so
both estimators also exist in batched form: :func:`batch_periodogram` and
:func:`batch_welch_psd` take a ``(rows, n)`` matrix of equal-length traces
and compute every row's PSD with a single ``np.fft.rfft(axis=-1)`` call,
returning a :class:`repro.signals.SpectrumBatch`.  The scalar and batched
paths share the same normalisation helper, so a batch row is numerically
the same PSD the scalar estimator would produce for that trace.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..signals.spectrum import Spectrum, SpectrumBatch
from ..signals.timeseries import TimeSeries

__all__ = [
    "periodogram",
    "welch_psd",
    "batch_periodogram",
    "batch_welch_psd",
    "WindowName",
    "window_coefficients",
    "taper_energy",
]

WindowName = Literal["rectangular", "hann", "hamming", "blackman"]

_WINDOW_BUILDERS = {
    "rectangular": lambda n: np.ones(n),
    "hann": np.hanning,
    "hamming": np.hamming,
    "blackman": np.blackman,
}


def window_coefficients(name: WindowName, length: int) -> np.ndarray:
    """Return the taper coefficients for the named window function."""
    if length < 1:
        raise ValueError("length must be >= 1")
    try:
        builder = _WINDOW_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown window {name!r}; choose from {sorted(_WINDOW_BUILDERS)}") from None
    if length == 1:
        return np.ones(1)
    return np.asarray(builder(length), dtype=np.float64)


def taper_energy(taper: np.ndarray) -> float:
    """Sum of squared taper coefficients, rejecting degenerate tapers.

    A tapered window can be identically (or numerically) zero at very
    short lengths -- ``hanning(2) == [0, 0]`` is the canonical case -- in
    which case the PSD normalisation divides by zero and every bin comes
    out NaN.  Rather than emit a RuntimeWarning and a NaN spectrum, fail
    with an actionable error.
    """
    energy = float(np.sum(taper ** 2))
    if energy <= taper.size * np.finfo(np.float64).eps ** 2:
        raise ValueError(
            f"degenerate tapered window of length {taper.size}: the taper has "
            "(near-)zero energy (e.g. hann of length 2), so the PSD is undefined; "
            "use a longer segment or window='rectangular'")
    return energy


def _one_sided_psd(values: np.ndarray, taper: np.ndarray) -> np.ndarray:
    """One-sided PSD along the last axis of ``values``.

    Normalised so the sum of bin powers equals the mean squared value of
    the signal (exactly so for the rectangular window, in expectation for
    tapered windows); only ratios matter downstream, but a physical
    normalisation makes the numbers interpretable in tests.  Interior bins
    are doubled to account for negative frequencies (DC and, for even n,
    the Nyquist bin are unique).
    """
    n = values.shape[-1]
    scale = n * taper_energy(taper)
    spectrum = np.fft.rfft(values * taper, axis=-1)
    power = (np.abs(spectrum) ** 2) / scale
    if n % 2 == 0:
        power[..., 1:-1] *= 2.0
    else:
        power[..., 1:] *= 2.0
    return power


def periodogram(series: TimeSeries, window: WindowName = "rectangular",
                detrend: bool = False) -> Spectrum:
    """Single-FFT power spectral density of ``series``.

    Parameters
    ----------
    series:
        The regularly sampled trace to analyse.
    window:
        Taper applied before the FFT.  The paper's method uses the plain
        FFT (rectangular window), which is the default.
    detrend:
        If True, remove the mean before the FFT.  This moves what would be
        DC leakage out of the low-frequency bins; the Nyquist estimator
        instead handles the mean by ignoring the DC bin, so the default is
        False.

    Returns
    -------
    Spectrum
        One-sided PSD with ``len(series) // 2 + 1`` bins.
    """
    if len(series) < 2:
        raise ValueError("need at least two samples to compute a periodogram")
    values = series.values - series.mean() if detrend else series.values
    taper = window_coefficients(window, len(series))
    power = _one_sided_psd(values, taper)
    freqs = np.fft.rfftfreq(len(series), d=series.interval)
    return Spectrum(freqs, power, series.sampling_rate)


def batch_periodogram(values: np.ndarray, interval: float,
                      window: WindowName = "rectangular",
                      detrend: bool = False) -> SpectrumBatch:
    """Single-FFT PSDs of a whole batch of equal-length traces.

    Parameters
    ----------
    values:
        ``(rows, n)`` matrix; each row is one trace of ``n`` samples.
    interval:
        The common sampling interval of every row, in seconds.
    window / detrend:
        As for :func:`periodogram`.

    Returns
    -------
    SpectrumBatch
        ``rows`` one-sided PSDs of ``n // 2 + 1`` bins each, computed with
        one ``rfft(axis=-1)`` call for the whole batch.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"values must be a 2-D (rows, samples) matrix, got shape {matrix.shape}")
    if interval <= 0:
        raise ValueError("interval must be positive")
    n = matrix.shape[-1]
    if n < 2:
        raise ValueError("need at least two samples per trace to compute a periodogram")
    if detrend:
        matrix = matrix - np.mean(matrix, axis=-1, keepdims=True)
    taper = window_coefficients(window, n)
    power = _one_sided_psd(matrix, taper)
    freqs = np.fft.rfftfreq(n, d=interval)
    return SpectrumBatch(freqs, power, 1.0 / interval)


def _welch_starts(n: int, segment_length: int, step: int) -> list[int]:
    """Segment start offsets covering all ``n`` samples.

    The stride-based starts alone drop up to ``segment_length - 1``
    trailing samples whenever ``n - segment_length`` is not a multiple of
    ``step``; a final end-anchored segment guarantees the tail of the
    trace is analysed too.
    """
    starts = list(range(0, n - segment_length + 1, step))
    if starts and starts[-1] + segment_length < n:
        starts.append(n - segment_length)
    return starts


def _welch_parameters(n: int, segment_length: int | None, overlap: float) -> tuple[int, int]:
    """Validate and resolve the (segment_length, step) pair for Welch."""
    if segment_length is None:
        segment_length = max(min(n, 256), 2)
    if segment_length < 2:
        raise ValueError("segment_length must be >= 2")
    segment_length = min(segment_length, n)
    if not 0 <= overlap < 1:
        raise ValueError("overlap must be in [0, 1)")
    step = max(int(round(segment_length * (1.0 - overlap))), 1)
    return segment_length, step


def welch_psd(series: TimeSeries, segment_length: int | None = None,
              overlap: float = 0.5, window: WindowName = "hann",
              detrend: bool = True) -> Spectrum:
    """Welch-averaged PSD: split into overlapping segments, average periodograms.

    Averaging trades frequency resolution for variance reduction, which
    helps when a trace is dominated by measurement noise.  The paper's
    survey uses the raw periodogram; Welch is offered for robustness
    experiments.  When the stride does not land exactly on the end of the
    trace, a final end-anchored segment is added so no trailing samples
    are silently dropped.
    """
    n = len(series)
    if n < 2:
        raise ValueError("need at least two samples to compute a PSD")
    segment_length, step = _welch_parameters(n, segment_length, overlap)

    taper = window_coefficients(window, segment_length)
    freqs = np.fft.rfftfreq(segment_length, d=series.interval)
    accumulated = np.zeros(freqs.shape)
    # segment_length is clamped to n, so there is always at least one start.
    starts = _welch_starts(n, segment_length, step)
    for start in starts:
        chunk = series.values[start:start + segment_length]
        if detrend:
            chunk = chunk - np.mean(chunk)
        accumulated += _one_sided_psd(chunk, taper)
    return Spectrum(freqs, accumulated / len(starts), series.sampling_rate)


def batch_welch_psd(values: np.ndarray, interval: float,
                    segment_length: int | None = None,
                    overlap: float = 0.5, window: WindowName = "hann",
                    detrend: bool = True) -> SpectrumBatch:
    """Welch-averaged PSDs of a whole batch of equal-length traces.

    Segments of every row are gathered into one ``(rows, segments, n)``
    array and transformed with a single ``rfft(axis=-1)`` call, then
    averaged over the segment axis.  Segmentation (including the
    end-anchored final segment) matches :func:`welch_psd` exactly.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"values must be a 2-D (rows, samples) matrix, got shape {matrix.shape}")
    if interval <= 0:
        raise ValueError("interval must be positive")
    n = matrix.shape[-1]
    if n < 2:
        raise ValueError("need at least two samples per trace to compute a PSD")
    segment_length, step = _welch_parameters(n, segment_length, overlap)

    starts = np.asarray(_welch_starts(n, segment_length, step), dtype=np.intp)
    # Gather all segments of all rows: (rows, segments, segment_length).
    segments = matrix[:, starts[:, None] + np.arange(segment_length)]
    if detrend:
        segments = segments - np.mean(segments, axis=-1, keepdims=True)
    taper = window_coefficients(window, segment_length)
    power = np.mean(_one_sided_psd(segments, taper), axis=1)
    freqs = np.fft.rfftfreq(segment_length, d=interval)
    return SpectrumBatch(freqs, power, 1.0 / interval)
