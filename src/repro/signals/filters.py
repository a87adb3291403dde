"""The reconstruction filter.

Reconstruction in the paper (Section 4.3) is "pass the signal through a
low-pass filter (for example, by taking an FFT of the sampled signal,
setting all frequency components above f0 to 0 and then taking the IFFT)".
That FFT brick-wall filter lives here.
"""

from __future__ import annotations

import numpy as np

from .timeseries import TimeSeries

__all__ = [
    "low_pass_fft",
]


def low_pass_fft(series: TimeSeries, cutoff_hz: float) -> TimeSeries:
    """Brick-wall low-pass filter: zero all FFT bins above ``cutoff_hz``.

    This is exactly the reconstruction filter described in Section 4.3 of
    the paper.  The DC component is always preserved.
    """
    if cutoff_hz < 0:
        raise ValueError("cutoff_hz must be non-negative")
    if len(series) == 0:
        return series
    spectrum = np.fft.rfft(series.values)
    freqs = np.fft.rfftfreq(len(series), d=series.interval)
    spectrum[freqs > cutoff_hz] = 0.0
    filtered = np.fft.irfft(spectrum, n=len(series))
    return series.with_values(filtered)
