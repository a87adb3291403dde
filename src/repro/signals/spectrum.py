"""Frequency-domain representation of a sampled signal.

A :class:`Spectrum` is the output of :func:`repro.core.psd.periodogram`
and the input of the Nyquist estimator and the aliasing detector.  It is
a thin, immutable wrapper around two arrays (bin frequencies and per-bin
power) plus the sampling rate that produced them, with a few
energy-accounting and band helpers; the Section 3.2 cut-off search itself
lives in :mod:`repro.core.nyquist`.

:class:`SpectrumBatch` is the fleet-scale counterpart: one shared
frequency grid and a 2-D power matrix holding the PSDs of many
equal-length traces at once.  It is produced by
:func:`repro.core.psd.batch_periodogram` and consumed by the dual-rate
spectrum comparison in :mod:`repro.core.aliasing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Spectrum", "SpectrumBatch"]


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectral density of a real signal.

    Parameters
    ----------
    frequencies:
        Bin centre frequencies in Hz, ascending, starting at 0 (DC).
    power:
        Power in each bin (arbitrary units -- only ratios matter for the
        Nyquist estimator).
    sampling_rate:
        The sampling rate of the time-domain signal the spectrum was
        computed from.  The largest representable frequency is
        ``sampling_rate / 2``.
    """

    frequencies: np.ndarray
    power: np.ndarray
    sampling_rate: float

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        if freqs.ndim != 1 or power.ndim != 1:
            raise ValueError("frequencies and power must be one-dimensional")
        if freqs.shape != power.shape:
            raise ValueError("frequencies and power must have the same length")
        if freqs.size and np.any(np.diff(freqs) < 0):
            raise ValueError("frequencies must be ascending")
        if np.any(power < -1e-12):
            raise ValueError("power must be non-negative")
        if not math.isfinite(self.sampling_rate) or self.sampling_rate <= 0:
            raise ValueError("sampling_rate must be positive and finite")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "power", np.maximum(power, 0.0))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.frequencies.shape[0])

    def total_energy(self) -> float:
        """Sum of per-bin power without DC (the paper's "total energy in the signal")."""
        if len(self) == 0:
            return 0.0
        power = self.power[1:] if self.frequencies[0] == 0 else self.power
        return float(np.sum(power))

    def without_dc(self) -> "Spectrum":
        """Return a copy with the DC bin removed (if present)."""
        if len(self) and self.frequencies[0] == 0.0:
            return Spectrum(self.frequencies[1:], self.power[1:], self.sampling_rate)
        return self

    def energy_below(self, frequency: float) -> float:
        """Energy contained in the non-DC bins at or below ``frequency``."""
        spec = self.without_dc()
        mask = spec.frequencies <= frequency + 1e-15
        return float(np.sum(spec.power[mask]))

    def energy_fraction_below(self, frequency: float) -> float:
        """Fraction of non-DC energy at or below ``frequency`` (0 if there is none)."""
        total = self.total_energy()
        if total <= 0:
            return 0.0
        return self.energy_below(frequency) / total

    def dominant_frequency(self) -> float | None:
        """Frequency of the strongest non-DC bin (``None`` if there is none)."""
        spec = self.without_dc()
        if len(spec) == 0:
            return None
        return float(spec.frequencies[int(np.argmax(spec.power))])

    def band(self, f_low: float, f_high: float) -> "Spectrum":
        """Bins whose frequency lies in ``[f_low, f_high]``."""
        if f_high < f_low:
            raise ValueError("f_high must be >= f_low")
        mask = (self.frequencies >= f_low - 1e-15) & (self.frequencies <= f_high + 1e-15)
        return Spectrum(self.frequencies[mask], self.power[mask], self.sampling_rate)

    def interpolate_power(self, frequencies: np.ndarray | Sequence[float]) -> np.ndarray:
        """Linearly interpolate the PSD at arbitrary frequencies.

        Used by the dual-frequency aliasing detector to compare spectra
        computed at different resolutions on a common frequency grid.
        """
        targets = np.asarray(frequencies, dtype=np.float64)
        if len(self) == 0:
            return np.zeros_like(targets)
        return np.interp(targets, self.frequencies, self.power, left=self.power[0], right=self.power[-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Spectrum(bins={len(self)}, fs={self.sampling_rate:g}Hz, "
                f"fmax={self.sampling_rate / 2.0:g}Hz)")


@dataclass(frozen=True)
class SpectrumBatch:
    """One-sided PSDs of a batch of equal-length real signals.

    All rows share one sampling rate and therefore one frequency grid, so
    the batch is stored as a single ``(rows, bins)`` power matrix instead
    of ``rows`` separate :class:`Spectrum` objects.  This is the layout the
    batched Nyquist engine (:mod:`repro.core.batch`) reduces over with
    single vectorised ``cumsum``/``argmax`` calls.

    Parameters
    ----------
    frequencies:
        Bin centre frequencies in Hz, ascending, shared by every row.
    power:
        ``(rows, bins)`` matrix of per-bin power, one row per trace.
    sampling_rate:
        The common sampling rate of the time-domain signals.

    The constructor checks its input and stores ``power`` as a fresh
    C-contiguous float64 matrix with round-off negatives clipped to 0.
    Batches derived inside the library -- :meth:`without_dc`,
    :meth:`band` and :func:`repro.core.psd.batch_periodogram` -- skip
    those full-matrix passes, because their power is already checked or
    non-negative by construction; they still store a C-contiguous
    matrix, which the row-batched reductions rely on for bit-for-bit
    equality with the one-row results.
    """

    frequencies: np.ndarray
    power: np.ndarray
    sampling_rate: float

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        if freqs.ndim != 1:
            raise ValueError("frequencies must be one-dimensional")
        if power.ndim != 2:
            raise ValueError("power must be two-dimensional (rows, bins)")
        if power.shape[1] != freqs.shape[0]:
            raise ValueError("power must have one column per frequency bin")
        if freqs.size and np.any(np.diff(freqs) < 0):
            raise ValueError("frequencies must be ascending")
        if np.any(power < -1e-12):
            raise ValueError("power must be non-negative")
        if not math.isfinite(self.sampling_rate) or self.sampling_rate <= 0:
            raise ValueError("sampling_rate must be positive and finite")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "power", np.maximum(power, 0.0))

    @classmethod
    def _of_checked(cls, frequencies: np.ndarray, power: np.ndarray,
                    sampling_rate: float) -> "SpectrumBatch":
        """A batch over arrays that already pass every constructor check.

        ``frequencies`` must be ascending float64, ``power`` a
        C-contiguous float64 ``(rows, bins)`` matrix with no negative bin
        (NaN allowed, as the constructor allows it), and
        ``sampling_rate`` positive and finite.  Nothing is copied or
        re-checked, so the caller vouches for all of it.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "frequencies", frequencies)
        object.__setattr__(batch, "power", power)
        object.__setattr__(batch, "sampling_rate", sampling_rate)
        return batch

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of traces (rows) in the batch."""
        return int(self.power.shape[0])

    @property
    def bins(self) -> int:
        """Number of frequency bins per row."""
        return int(self.frequencies.shape[0])

    @property
    def max_frequency(self) -> float:
        """The Nyquist frequency of the *measurement*, ``sampling_rate / 2``."""
        return self.sampling_rate / 2.0

    def row(self, index: int) -> Spectrum:
        """The PSD of one trace as a scalar :class:`Spectrum`."""
        return Spectrum(self.frequencies, self.power[index], self.sampling_rate)

    def __iter__(self) -> Iterator[Spectrum]:
        for index in range(len(self)):
            yield self.row(index)

    def without_dc(self) -> "SpectrumBatch":
        """Return a copy with the DC bin column removed (if present)."""
        if self.bins and self.frequencies[0] == 0.0:
            return SpectrumBatch._of_checked(self.frequencies[1:],
                                             np.ascontiguousarray(self.power[:, 1:]),
                                             self.sampling_rate)
        return self

    def band(self, f_low: float, f_high: float) -> "SpectrumBatch":
        """Bin columns whose frequency lies in ``[f_low, f_high]`` (as :meth:`Spectrum.band`)."""
        if f_high < f_low:
            raise ValueError("f_high must be >= f_low")
        mask = (self.frequencies >= f_low - 1e-15) & (self.frequencies <= f_high + 1e-15)
        return SpectrumBatch._of_checked(self.frequencies[mask],
                                         np.compress(mask, self.power, axis=1),
                                         self.sampling_rate)

    def interpolate_power(self, frequencies: np.ndarray | Sequence[float]) -> np.ndarray:
        """Row-wise :meth:`Spectrum.interpolate_power`, shape ``(rows, len(frequencies))``.

        ``np.interp`` is one-dimensional, so each row is interpolated with
        its own call -- the same call the scalar spectrum makes, which keeps
        every row bit-for-bit equal to the per-spectrum result.
        """
        targets = np.asarray(frequencies, dtype=np.float64)
        result = np.zeros((len(self), targets.size))
        if self.bins == 0:
            return result
        for index, row in enumerate(self.power):
            result[index] = np.interp(targets, self.frequencies, row,
                                      left=row[0], right=row[-1])
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpectrumBatch(rows={len(self)}, bins={self.bins}, "
                f"fs={self.sampling_rate:g}Hz)")
