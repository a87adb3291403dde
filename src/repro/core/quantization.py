"""Quantisation: uniform quantisers.

Section 4.3 of the paper: "In practice, measurement readings are quantized
... Such quantization adds noise which in the frequency domain appears at
higher frequencies".  Two uses in this library:

* the telemetry generators quantise their outputs the way real sensors and
  counters do (temperatures to whole degrees, utilisation to whole
  percents, counters to integers);
* quantisation-aware reconstruction re-applies the original quantiser to a
  reconstructed signal, which is what lets Figure 6 report an (effectively)
  zero L2 distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..signals.timeseries import TimeSeries

__all__ = [
    "UniformQuantizer",
]


@dataclass(frozen=True)
class UniformQuantizer:
    """A mid-tread uniform quantiser with step ``step`` and optional clipping.

    ``quantize(x) = round(x / step) * step`` (then clipped to
    ``[minimum, maximum]`` when bounds are given).
    """

    step: float
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.step) or self.step <= 0:
            raise ValueError("step must be a positive finite number")
        if self.minimum is not None and self.maximum is not None and self.maximum < self.minimum:
            raise ValueError("maximum must be >= minimum")

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Quantise an array of raw values."""
        quantized = np.round(np.asarray(values, dtype=np.float64) / self.step) * self.step
        if self.minimum is not None or self.maximum is not None:
            quantized = np.clip(quantized, self.minimum, self.maximum)
        return quantized

    def apply_series(self, series: TimeSeries) -> TimeSeries:
        """Quantise a whole time series."""
        return series.with_values(self.apply(series.values))
