"""The survey dataset: the synthetic counterpart of the paper's 1613 metric-device pairs.

Section 3.2: "In total, we studied 1613 metric and device pairs (14
distinct metrics)."  :class:`FleetDataset` materialises the same survey on
synthetic telemetry: it builds a fleet, assigns each of the 14 catalogue
metrics to a subset of devices so the total number of pairs matches the
paper, draws per-pair generative parameters (including the paper's ~11 %
broadband pairs, a fixed share), and produces one day's worth of data per
pair at the metric's production polling rate.

Traces are generated lazily so iterating the full survey stays cheap in
memory; everything is deterministic in the dataset seed.  For the batched
spectral engine, :meth:`FleetDataset.trace_batches` (inherited from
:class:`~repro.telemetry.source.BaseTraceSource`) groups traces that
share a (length, interval) shape into bounded-size :class:`TraceBatch`
matrices, so fleet-scale surveys can be analysed one ``rfft`` call per
chunk while memory stays bounded by ``chunk_size`` rows.

:class:`FleetDataset` is one implementation of the
:class:`~repro.telemetry.source.TraceSource` protocol; recorded (measured)
fleets are served by :class:`~repro.telemetry.measured.MeasuredFleetDataset`
through the same interface, and :meth:`FleetDataset.export` round-trips a
synthetic fleet to such a directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..signals.timeseries import TimeSeries
from .fleet import build_fleet
from .metrics import METRIC_CATALOG, MetricSpec
from .models import generate_trace
from .profiles import DeviceProfile, MetricParameters, draw_metric_parameters
from .source import BaseTraceSource, TraceBatch

__all__ = ["DatasetConfig", "TracePair", "TraceBatch", "FleetDataset", "PAPER_PAIR_COUNT"]

#: Number of (metric, device) pairs in the paper's survey.
PAPER_PAIR_COUNT: int = 1613

#: One day of data per pair, as in the paper ("each datapoint is one day's
#: worth of data from a distinct device").
PAPER_TRACE_DURATION: float = 86400.0

#: Share of pairs whose traces look aliased (paper: ~11 %).
_BROADBAND_FRACTION = 0.11

#: Every fleet surveys the whole catalogue, in catalogue order.
_METRICS = tuple(METRIC_CATALOG)

#: The two retired config fields, as the content token still writes them.
_RETIRED_FIELDS = f"metrics={_METRICS!r}, broadband_fraction=0.11"


@dataclass(frozen=True)
class DatasetConfig:
    """Configuration of a survey dataset.

    Attributes
    ----------
    pair_count:
        Total number of (metric, device) pairs; defaults to the paper's 1613.
    trace_duration:
        Length of each trace in seconds (paper: one day).
    seed:
        Master seed; everything else derives from it deterministically.
    """

    pair_count: int = PAPER_PAIR_COUNT
    trace_duration: float = PAPER_TRACE_DURATION
    seed: int = 7

    def __post_init__(self) -> None:
        if self.pair_count < 1:
            raise ValueError("pair_count must be >= 1")
        if not (math.isfinite(self.trace_duration) and self.trace_duration > 0):
            raise ValueError("trace_duration must be a positive finite number, "
                             f"got {self.trace_duration}")

    def open(self) -> "FleetDataset":
        """Materialise the dataset this config describes.

        This makes a ``DatasetConfig`` double as the synthetic fleet's
        picklable :class:`~repro.telemetry.source.WorkerSpec`: survey
        workers ship the config across the process boundary and regenerate
        their pair slices locally.
        """
        return FleetDataset(self)


@dataclass(frozen=True)
class TracePair:
    """One (metric, device) pair of the survey, with its generative parameters."""

    metric: MetricSpec
    device: DeviceProfile
    parameters: MetricParameters

    @property
    def key(self) -> tuple[str, str]:
        return (self.metric.name, self.device.device_id)


@dataclass
class FleetDataset(BaseTraceSource):
    """Lazily generated survey dataset over a synthetic fleet."""

    config: DatasetConfig = field(default_factory=DatasetConfig)

    def __post_init__(self) -> None:
        self._pairs: list[TracePair] | None = None
        self._by_metric: dict[str, list[TracePair]] = {}

    # ------------------------------------------------------------------
    def _pair_counts_per_metric(self) -> dict[str, int]:
        """Split the total pair budget across metrics as evenly as possible."""
        base = self.config.pair_count // len(_METRICS)
        remainder = self.config.pair_count % len(_METRICS)
        counts = {}
        for index, name in enumerate(_METRICS):
            counts[name] = base + (1 if index < remainder else 0)
        return counts

    def pairs(self) -> list[TracePair]:
        """All (metric, device) pairs of the survey (cached after first call)."""
        if self._pairs is not None:
            return self._pairs
        counts = self._pair_counts_per_metric()
        fleet = build_fleet(max(counts.values()) if counts else 1, seed=self.config.seed)
        rng = np.random.default_rng(self.config.seed + 1)
        by_metric: dict[str, list[TracePair]] = {}
        for metric_name in _METRICS:
            spec = METRIC_CATALOG[metric_name]
            count = counts[metric_name]
            # Each metric is monitored on its own subset of the fleet: the
            # first `count` devices in a metric-specific random order.
            order = rng.permutation(len(fleet))[:count]
            by_metric[metric_name] = [
                TracePair(spec, device, draw_metric_parameters(
                    spec, device, self.config.trace_duration,
                    broadband_fraction=_BROADBAND_FRACTION))
                for device in (fleet[int(index)] for index in order)]
        self._by_metric = by_metric
        self._pairs = [pair for pairs in by_metric.values() for pair in pairs]
        return self._pairs

    def pairs_for_metric(self, metric_name: str) -> list[TracePair]:
        """All pairs belonging to one metric family."""
        self.pairs()
        return list(self._by_metric.get(metric_name, []))

    @property
    def trace_duration(self) -> float:
        """Nominal trace length in seconds (the config's, paper: one day)."""
        return self.config.trace_duration

    def worker_spec(self) -> DatasetConfig:
        """Picklable worker address: the config the fleet regenerates from."""
        return self.config

    def pair_content_token(self, pair: TracePair) -> str:
        """Identity of one synthetic trace: the config plus the pair's
        generative parameters (every trace is a pure function of both).

        The config is written as its repr was while the catalogue and the
        broadband share were options, so stores filled then still hit.
        """
        config = self.config
        return (f"DatasetConfig(pair_count={config.pair_count!r}, "
                f"trace_duration={config.trace_duration!r}, {_RETIRED_FIELDS}, "
                f"seed={config.seed!r})|{pair.metric.name}|{pair.device.device_id}|"
                f"{pair.parameters!r}")

    # ------------------------------------------------------------------
    def load(self, pair: TracePair) -> TimeSeries:
        """Generate the trace for one pair at the metric's production
        polling interval (what today's monitoring system collects)."""
        rng = np.random.default_rng(pair.parameters.seed)
        return generate_trace(pair.metric, pair.parameters, self.config.trace_duration,
                              rng=rng, device_name=pair.device.device_id)

    def metric_names(self) -> list[str]:
        """Metrics included in this dataset: the whole catalogue."""
        return list(_METRICS)
