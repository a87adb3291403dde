"""Shared fixtures for the test suite."""

from __future__ import annotations

import shutil
from typing import Any, Callable, Sequence

import numpy as np
import pytest

from repro.analysis.survey import (_CATEGORY_CODE, OVERSAMPLE_THRESHOLD, PairCategory, RecordBlock,
                                   SurveyResult)
from repro.core.nyquist import NyquistEstimator
from repro.signals.generators import multi_tone
from repro.signals.timeseries import TimeSeries
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.measured import MeasuredFleetDataset
from repro.telemetry.metrics import METRIC_CATALOG
from repro.telemetry.profiles import DeviceProfile, DeviceRole, draw_metric_parameters
from repro.telemetry.source import BaseTraceSource, TraceSource
from signal_helpers import sine


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def sine_1hz() -> TimeSeries:
    """A 1 Hz sine sampled at 50 Hz for 10 seconds (Nyquist rate exactly 2 Hz)."""
    return sine(1.0, duration=10.0, sampling_rate=50.0)


@pytest.fixture
def two_tone() -> TimeSeries:
    """The paper's Figure 3 signal: 400 Hz + 440 Hz tones at 2 kHz."""
    return multi_tone([400.0, 440.0], duration=1.0, sampling_rate=2000.0)


@pytest.fixture
def slow_metric_trace() -> TimeSeries:
    """A slow, datacenter-metric-like trace: one cycle every 4 hours, polled every 30 s."""
    return multi_tone([1.0 / 14400.0], duration=86400.0, sampling_rate=1.0 / 30.0,
                      amplitudes=[10.0], offset=50.0)


@pytest.fixture
def temperature_trace(rng) -> TimeSeries:
    """One day of synthetic temperature telemetry at the production rate."""
    from repro.telemetry.models import generate_trace

    spec = METRIC_CATALOG["Temperature"]
    device = DeviceProfile("test-tor-1", DeviceRole.TOR_SWITCH, seed=99)
    params = draw_metric_parameters(spec, device, 86400.0, broadband_fraction=0.0,
                                    rng=np.random.default_rng(99))
    return generate_trace(spec, params, 86400.0, rng=rng, device_name=device.device_id)


@pytest.fixture(scope="session")
def small_dataset() -> FleetDataset:
    """A small survey dataset shared by dataset/survey tests (42 pairs, 3 per metric)."""
    return FleetDataset(DatasetConfig(pair_count=42, seed=5))


# ----------------------------------------------------------------------
# Per-trace survey oracle
# ----------------------------------------------------------------------
def scalar_survey(dataset: TraceSource,
                  estimator: NyquistEstimator | None = None) -> SurveyResult:
    """The survey computed the reference way: ``estimator.estimate`` per trace.

    Each metric's outcomes are packed into one :class:`RecordBlock`, so the
    result aggregates through the same code as a batched survey.
    """
    estimator = estimator or NyquistEstimator()
    result = SurveyResult()
    for metric_name in dataset.metric_names():
        rows = []
        for pair, trace in dataset.traces(metric_name):
            estimate = estimator.estimate(trace)
            if not estimate.reliable:
                category = PairCategory.ALIASED_SUSPECT
            elif estimate.reduction_ratio > OVERSAMPLE_THRESHOLD:
                category = PairCategory.OVERSAMPLED
            else:
                category = PairCategory.MARGINAL
            rows.append((pair.device.device_id, trace.sampling_rate, estimate.nyquist_rate,
                         estimate.reduction_ratio, _CATEGORY_CODE[category],
                         estimate.reliable, pair.parameters.true_nyquist_rate))
        if not rows:
            continue
        devices, current, nyquist, ratio, category, reliable, true_nyquist = zip(*rows)
        result.append_block(RecordBlock(
            metric_name=metric_name,
            device_ids=np.array(devices, dtype=np.str_),
            current_rate=np.array(current, dtype=np.float64),
            nyquist_rate=np.array(nyquist, dtype=np.float64),
            reduction_ratio=np.array(ratio, dtype=np.float64),
            category=np.array(category, dtype=np.int8),
            reliable=np.array(reliable, dtype=bool),
            true_nyquist_rate=np.array(true_nyquist, dtype=np.float64),
            trace_duration=np.full(len(rows), dataset.trace_duration)))
    return result


@pytest.fixture(scope="session")
def survey_oracle() -> Callable[..., SurveyResult]:
    """:func:`scalar_survey`, the per-trace reference the batched survey must match."""
    return scalar_survey


# ----------------------------------------------------------------------
# A measured fleet that mixes (length, interval) shapes inside one metric
# ----------------------------------------------------------------------
#: The metric whose devices poll at two rates, and the positions (within
#: that metric) of the devices polling at half the production rate.  At
#: ``chunk_size=4`` both slices of the metric hold both shapes.
MIXED_METRIC = "Link util"
MIXED_SLOW_POSITIONS = (2, 3, 4, 5)


class _HalfRatePairs(BaseTraceSource):
    """Some metrics of a fleet, in which some pairs poll at twice the production interval."""

    def __init__(self, inner: FleetDataset, metrics: tuple[str, ...],
                 slow_keys: set[tuple[str, str]]) -> None:
        self.inner = inner
        self.metrics = metrics
        self.slow_keys = slow_keys

    def pairs(self) -> Sequence:
        return [pair for pair in self.inner.pairs() if pair.metric.name in self.metrics]

    def pairs_for_metric(self, metric_name: str) -> Sequence:
        return self.inner.pairs_for_metric(metric_name) if metric_name in self.metrics else []

    def metric_names(self) -> list[str]:
        return list(self.metrics)

    @property
    def trace_duration(self) -> float:
        return self.inner.trace_duration

    def worker_spec(self) -> Any:  # pragma: no cover - only exported, never pooled
        raise NotImplementedError

    def load(self, pair: Any) -> TimeSeries:
        trace = self.inner.load(pair)
        if pair.key not in self.slow_keys:
            return trace
        return TimeSeries(trace.values[::2].copy(), 2 * trace.interval,
                          start_time=trace.start_time)


@pytest.fixture(scope="session")
def mixed_shape_fleet(tmp_path_factory) -> MeasuredFleetDataset:
    """Two metrics of eight 6 h traces; ``Link util`` mixes (720, 30 s) and (360, 60 s)."""
    fleet = FleetDataset(DatasetConfig(pair_count=112, seed=5, trace_duration=21600.0))
    pairs = fleet.pairs_for_metric(MIXED_METRIC)
    slow = {pairs[position].key for position in MIXED_SLOW_POSITIONS}
    return _HalfRatePairs(fleet, ("Temperature", MIXED_METRIC), slow).export(
        tmp_path_factory.mktemp("mixed") / "fleet")


@pytest.fixture(scope="session")
def corrupt_mixed_shape_fleet(mixed_shape_fleet, tmp_path_factory
                              ) -> tuple[MeasuredFleetDataset, tuple[str, str]]:
    """The mixed-shape fleet with the first trace of its mixed slice corrupted."""
    directory = tmp_path_factory.mktemp("mixed-corrupt") / "fleet"
    shutil.copytree(mixed_shape_fleet.directory, directory)
    corrupt = MeasuredFleetDataset(directory)
    pair = corrupt.pairs_for_metric(MIXED_METRIC)[0]
    (directory / pair.file).write_bytes(b"not a trace file")
    return corrupt, pair.key
