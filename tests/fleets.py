"""A synthetic fleet reshaped for tests: a catalogue subset, a planted broadband share.

The library's :class:`~repro.telemetry.dataset.FleetDataset` always
spreads its pairs over the whole 14-metric catalogue and plants the
paper's ~11 % broadband pairs.  Some tests need less or other:
:class:`ReshapedFleet` serves only ``metrics`` (ask for 14 /
``len(metrics)`` times the pairs you want), so ingest dumps stay small,
and with ``broadband_fraction`` set it redraws each pair's parameters with
:func:`~repro.telemetry.profiles.draw_metric_parameters` at that share,
on the same devices, for the estimator's calibration tests.

It serves the calling process only: pool workers would re-open the
library fleet from the config.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.dataset import FleetDataset, TracePair
from repro.telemetry.metrics import METRIC_CATALOG
from repro.telemetry.profiles import draw_metric_parameters


@dataclass
class ReshapedFleet(FleetDataset):
    """``FleetDataset`` restricted to ``metrics``, optionally redrawn at a broadband share."""

    metrics: tuple[str, ...] = tuple(METRIC_CATALOG)
    broadband_fraction: float | None = None

    def pairs(self) -> list[TracePair]:
        if self._pairs is None:
            super().pairs()
            self._by_metric = {name: [self._redraw(pair) for pair in pairs]
                               for name, pairs in self._by_metric.items()
                               if name in self.metrics}
            self._pairs = [pair for pairs in self._by_metric.values() for pair in pairs]
        return self._pairs

    def _redraw(self, pair: TracePair) -> TracePair:
        if self.broadband_fraction is None:
            return pair
        return TracePair(pair.metric, pair.device, draw_metric_parameters(
            pair.metric, pair.device, self.trace_duration,
            broadband_fraction=self.broadband_fraction))

    def metric_names(self) -> list[str]:
        return [name for name in super().metric_names() if name in self.metrics]
