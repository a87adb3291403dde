"""The survey dataset: the synthetic counterpart of the paper's 1613 metric-device pairs.

Section 3.2: "In total, we studied 1613 metric and device pairs (14
distinct metrics)."  :class:`FleetDataset` materialises the same survey on
synthetic telemetry: it builds a fleet, assigns each of the 14 catalogue
metrics to a subset of devices so the total number of pairs matches the
paper, draws per-pair generative parameters (including the paper's ~11 %
broadband pairs, a fixed share), and produces one day's worth of data per
pair at the metric's production polling rate.

This fleet and the monitored fabric of
:class:`~repro.network.DeploymentTraceSource` share one recipe, held by
their base :class:`SyntheticTraceSource`: a pair table drawn once, each
trace regenerated from its pair's seed, a content token of spec and pair.

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
from abc import abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol

import numpy as np

from ..signals.timeseries import TimeSeries
from .fleet import build_fleet
from .metrics import METRIC_CATALOG, MetricSpec
from .models import generate_trace
from .profiles import BROADBAND_FRACTION, DeviceProfile, MetricParameters, draw_metric_parameters
from .source import BaseTraceSource, TraceBatch, WorkerSpec

__all__ = ["DatasetConfig", "TracePair", "TraceBatch", "SyntheticTraceSource", "FleetDataset",
           "PAPER_PAIR_COUNT"]

#: Number of (metric, device) pairs in the paper's survey.
PAPER_PAIR_COUNT: int = 1613

#: One day of data per pair, as in the paper ("each datapoint is one day's
#: worth of data from a distinct device").
PAPER_TRACE_DURATION: float = 86400.0

#: Every fleet surveys the whole catalogue, in catalogue order.
_METRICS = tuple(METRIC_CATALOG)

#: The two retired config fields, as the content token still writes them.
_RETIRED_FIELDS = f"metrics={_METRICS!r}, broadband_fraction={BROADBAND_FRACTION!r}"


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


class _SyntheticSpec(WorkerSpec, Protocol):
    """What a synthetic source regenerates from: a frozen, seeded worker spec."""

    @property
    def trace_duration(self) -> float: ...


class SyntheticTraceSource(BaseTraceSource):
    """Base of the generated sources: subclasses draw the pair table (on first
    use) and name the spec; every trace is a pure function of both."""

    @abstractmethod
    def _draw_pairs(self) -> dict[str, list[TracePair]]:
        """Every pair, grouped by metric in survey order (empty groups kept)."""

    @abstractmethod
    def worker_spec(self) -> _SyntheticSpec:
        """The frozen spec this source regenerates from."""

    @cached_property
    def _pair_table(self) -> dict[str, list[TracePair]]:
        return self._draw_pairs()

    @cached_property
    def _all_pairs(self) -> list[TracePair]:
        return [pair for pairs in self._pair_table.values() for pair in pairs]

    def _pair(self, metric: MetricSpec, device: DeviceProfile) -> TracePair:
        """One pair, its parameters drawn at the paper's broadband share."""
        return TracePair(metric, device,
                         draw_metric_parameters(metric, device, self.trace_duration))

    def _interval(self, metric: MetricSpec) -> float:
        """Sampling interval of ``metric``'s traces: its production polling interval."""
        return metric.poll_interval

    def _spec_text(self) -> str:
        """The spec as the content token writes it."""
        return repr(self.worker_spec())

    def pairs(self) -> list[TracePair]:
        return self._all_pairs

    def pairs_for_metric(self, metric_name: str) -> list[TracePair]:
        return list(self._pair_table.get(metric_name, []))

    def metric_names(self) -> list[str]:
        return list(self._pair_table)

    @property
    def trace_duration(self) -> float:
        """Length of every trace in seconds (the spec's)."""
        return self.worker_spec().trace_duration

    def pair_content_token(self, pair: TracePair) -> str:
        """Identity of one generated trace: the spec plus the pair's
        generative parameters (every trace is a pure function of both)."""
        return (f"{self._spec_text()}|{pair.metric.name}|{pair.device.device_id}|"
                f"{pair.parameters!r}")

    def load(self, pair: TracePair) -> TimeSeries:
        """Generate one pair's trace from its own seed, every :meth:`_interval` seconds."""
        return generate_trace(pair.metric, pair.parameters, self.trace_duration,
                              interval=self._interval(pair.metric),
                              rng=np.random.default_rng(pair.parameters.seed),
                              device_name=pair.device.device_id)


@dataclass
class FleetDataset(SyntheticTraceSource):
    """Lazily generated survey dataset over a synthetic fleet."""

    config: DatasetConfig = field(default_factory=DatasetConfig)

    def _draw_pairs(self) -> dict[str, list[TracePair]]:
        """Each catalogue metric on its own devices, the pair budget split evenly."""
        base, remainder = divmod(self.config.pair_count, len(_METRICS))
        counts = [base + (1 if index < remainder else 0) for index in range(len(_METRICS))]
        fleet = build_fleet(max(counts), seed=self.config.seed)
        rng = np.random.default_rng(self.config.seed + 1)
        by_metric: dict[str, list[TracePair]] = {}
        for metric_name, count in zip(_METRICS, counts):
            # Each metric is monitored on its own subset of the fleet: the
            # first `count` devices in a metric-specific random order.
            order = rng.permutation(len(fleet))[:count]
            by_metric[metric_name] = [self._pair(METRIC_CATALOG[metric_name], fleet[int(index)])
                                      for index in order]
        return by_metric

    def worker_spec(self) -> DatasetConfig:
        """Picklable worker address: the config the fleet regenerates from."""
        return self.config

    def _spec_text(self) -> str:
        """The config as its repr was while the catalogue and the broadband
        share were options, so stores filled then still hit."""
        config = self.config
        return (f"DatasetConfig(pair_count={config.pair_count!r}, "
                f"trace_duration={config.trace_duration!r}, {_RETIRED_FIELDS}, "
                f"seed={config.seed!r})")
