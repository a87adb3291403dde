"""The fleet survey: running the Nyquist estimator over every (metric, device) pair.

This module reproduces the measurement study of Section 3.2: for every pair
of a :class:`~repro.telemetry.source.TraceSource` -- a synthetic
:class:`~repro.telemetry.dataset.FleetDataset` or a recorded
:class:`~repro.telemetry.measured.MeasuredFleetDataset` -- estimate the
Nyquist rate, compare it with the production sampling rate and classify the
pair.
The result object exposes exactly the aggregations the paper's figures
need: the over-sampled fraction per metric (Figure 1), the per-metric
reduction-ratio CDFs (Figure 4), the per-metric Nyquist-rate distributions
(Figure 5) and the headline statistics quoted in the text.

The pipeline is built for fleets far beyond the paper's 1613 pairs:

* **Columnar storage.**  Survey outcomes are stored as struct-of-arrays
  :class:`RecordBlock` chunks rather than one Python object per pair, so
  every aggregation is a handful of vectorised numpy reductions streamed
  block by block.  :class:`PairRecord` remains as a lazily materialised
  per-pair view for API compatibility.
* **Out-of-core results.**  A :class:`RecordSink` receives the blocks as
  they are produced; :class:`MemoryRecordSink` keeps them in RAM while
  :class:`SpillingRecordSink` streams each block to an ``.rcb`` file, so
  a 100k+-pair survey holds at most one ``chunk_size`` block in memory at
  a time and the aggregations stream back from disk.
* **Multi-worker execution.**  ``run_survey(workers=N)`` fans the whole
  per-pair pipeline -- trace *production* and estimation, not just the
  FFT -- out to a process pool.  Workers receive compact picklable batch
  specs (the source's ``worker_spec()`` plus a pair-slice address),
  re-open the source locally, run the batched engine and return columnar
  blocks; the parent only ever concatenates small result arrays.  For a
  synthetic :class:`FleetDataset` the spec is its config (traces are
  regenerated in the worker); for a
  :class:`~repro.telemetry.measured.MeasuredFleetDataset` it is the
  directory path, and the pair-slice address becomes a file-offset slice
  of the manifest's pair list.  Records are byte-identical to the
  single-process run because every mode works on the same ``chunk_size``
  pair slices, and a batch spec whose offset falls outside the
  manifest/pair count fails loudly instead of dropping records.

Estimation runs on the batched spectral engine (:mod:`repro.core.batch`):
each equal-shape (length, interval) group of traces becomes one ``rfft``
and one vectorised energy cut-off.  Slicing, the worker pool, the record
store and quarantine live in the shared slice driver
(:mod:`repro.analysis.driver`); this module supplies only the per-batch
estimate-and-classify step.

:func:`run_windowed_survey` is the fleet-wide Figure 7 loop: the
moving-window Nyquist sweep run over every pair through the vectorised
windowed sweep, summarising how much each pair's rate drifts -- the
continuous re-estimation the paper's Section 4 argues for.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

import numpy as np

from ..core.nyquist import NyquistEstimate, NyquistEstimator
from ..core.windowed import (FIGURE7_STEP_SECONDS, FIGURE7_WINDOW_SECONDS, rate_stability,
                             windowed_nyquist_rates)
from ..records import (BlockSchema, ColumnarBlock, ColumnSpec, MemoryRecordSink, RecordSink,
                       RecordStore, ScalarSpec, SpillingRecordSink, register_block_type)
from ..telemetry.dataset import TracePair
from ..telemetry.source import TraceBatch, TraceSource
from .driver import OnError, SliceResult, check_run_options, run_slices

__all__ = [
    "PairCategory",
    "PairRecord",
    "RecordBlock",
    "RecordSink",
    "MemoryRecordSink",
    "SpillingRecordSink",
    "SurveyResult",
    "run_survey",
    "OnError",
    "WindowedPairSummary",
    "run_windowed_survey",
]

#: Conservative reduction ratio assigned to unreliable pairs when they are
#: included in a CDF: an aliased trace's Nyquist rate is at least its
#: sampling rate, so no reduction is achievable.
UNRELIABLE_RATIO: float = 1.0


class PairCategory(enum.Enum):
    """Classification of one (metric, device) pair."""

    OVERSAMPLED = "oversampled"            # reliable estimate, clear headroom
    MARGINAL = "marginal"                  # reliable estimate, little or no headroom
    ALIASED_SUSPECT = "aliased_suspect"    # estimator refused (probably already aliased)


#: Stable integer codes for the columnar ``category`` column (also the
#: on-disk representation, so the order must never be reshuffled).
_CATEGORY_ORDER: tuple[PairCategory, ...] = (
    PairCategory.OVERSAMPLED, PairCategory.MARGINAL, PairCategory.ALIASED_SUSPECT)
_CATEGORY_CODE = {category: code for code, category in enumerate(_CATEGORY_ORDER)}
_OVERSAMPLED_CODE = _CATEGORY_CODE[PairCategory.OVERSAMPLED]
_MARGINAL_CODE = _CATEGORY_CODE[PairCategory.MARGINAL]
_SUSPECT_CODE = _CATEGORY_CODE[PairCategory.ALIASED_SUSPECT]


@dataclass(frozen=True)
class PairRecord:
    """Survey outcome for one (metric, device) pair.

    A per-pair *view*: the survey stores outcomes columnarly in
    :class:`RecordBlock` arrays and materialises these objects lazily
    (``SurveyResult.records``) for callers that want one object per pair.
    """

    metric_name: str
    device_id: str
    current_rate: float
    nyquist_rate: float
    reduction_ratio: float
    category: PairCategory
    reliable: bool
    true_nyquist_rate: float
    trace_duration: float

    @property
    def oversampled(self) -> bool:
        return self.category is PairCategory.OVERSAMPLED


@register_block_type
@dataclass(frozen=True)
class RecordBlock(ColumnarBlock):
    """Struct-of-arrays storage for one chunk of survey outcomes.

    All rows belong to one metric (chunks are produced per metric by both
    the sequential and the multi-worker pipeline), so the metric name is a
    single scalar rather than a per-row column.  Blocks are the unit of
    spilling and of the record store: each one round-trips losslessly
    through ``.rcb`` behind the sink layer of :mod:`repro.records`, with
    the layout (and hence the on-disk format) declared once in
    ``_SCHEMA``.
    """

    _SCHEMA = BlockSchema(
        scalars=(ScalarSpec("metric_name"),),
        columns=(
            ColumnSpec("device_ids", "str"),
            ColumnSpec("current_rate", "float"),
            ColumnSpec("nyquist_rate", "float"),
            ColumnSpec("reduction_ratio", "float"),
            ColumnSpec("category", "int8"),
            ColumnSpec("reliable", "bool"),
            ColumnSpec("true_nyquist_rate", "float"),
            ColumnSpec("trace_duration", "float"),
        ))

    metric_name: str
    device_ids: np.ndarray
    current_rate: np.ndarray
    nyquist_rate: np.ndarray
    reduction_ratio: np.ndarray
    category: np.ndarray
    reliable: np.ndarray
    true_nyquist_rate: np.ndarray
    trace_duration: np.ndarray

    # ------------------------------------------------------------------
    def to_records(self) -> Iterator[PairRecord]:
        """Materialise one :class:`PairRecord` view per row."""
        for index in range(len(self)):
            yield PairRecord(
                metric_name=self.metric_name,
                device_id=str(self.device_ids[index]),
                current_rate=float(self.current_rate[index]),
                nyquist_rate=float(self.nyquist_rate[index]),
                reduction_ratio=float(self.reduction_ratio[index]),
                category=_CATEGORY_ORDER[int(self.category[index])],
                reliable=bool(self.reliable[index]),
                true_nyquist_rate=float(self.true_nyquist_rate[index]),
                trace_duration=float(self.trace_duration[index]),
            )

    @classmethod
    def from_records(cls, metric_name: str, records: Sequence[PairRecord]) -> "RecordBlock":
        """Pack per-pair records (all of one metric) into columnar form."""
        rows = len(records)
        return cls(
            metric_name=metric_name,
            device_ids=np.array([record.device_id for record in records], dtype=np.str_),
            current_rate=np.fromiter((r.current_rate for r in records), np.float64, rows),
            nyquist_rate=np.fromiter((r.nyquist_rate for r in records), np.float64, rows),
            reduction_ratio=np.fromiter((r.reduction_ratio for r in records),
                                        np.float64, rows),
            category=np.fromiter((_CATEGORY_CODE[r.category] for r in records),
                                 np.int8, rows),
            reliable=np.fromiter((r.reliable for r in records), bool, rows),
            true_nyquist_rate=np.fromiter((r.true_nyquist_rate for r in records),
                                          np.float64, rows),
            trace_duration=np.fromiter((r.trace_duration for r in records),
                                       np.float64, rows),
        )

def _blocks_from_records(records: Iterable[PairRecord]) -> Iterator[RecordBlock]:
    """Group an ordered record stream into per-metric-run columnar blocks."""
    buffer: list[PairRecord] = []
    current: str | None = None
    for record in records:
        if current is not None and record.metric_name != current:
            yield RecordBlock.from_records(current, buffer)
            buffer = []
        current = record.metric_name
        buffer.append(record)
    if buffer:
        assert current is not None
        yield RecordBlock.from_records(current, buffer)


class SurveyResult(SliceResult):
    """All pair records of one survey run, with figure-oriented aggregations.

    Outcomes live in columnar :class:`RecordBlock` chunks behind a
    :class:`RecordSink`; every aggregation streams the blocks and reduces
    them with vectorised numpy operations, so a spilled (out-of-core)
    survey aggregates identically to an in-memory one while holding one
    block in memory at a time.  ``records`` materialises the classic
    per-pair :class:`PairRecord` list on demand.  ``cache_hits`` /
    ``cache_misses`` count the pairs of ``run_survey(store=...)``.
    """

    def __init__(self, records: Iterable[PairRecord] | None = None,
                 oversample_threshold: float = 1.25,
                 sink: RecordSink | None = None,
                 failure_sink: RecordSink | None = None) -> None:
        self.oversample_threshold = oversample_threshold
        super().__init__(sink, failure_sink)
        if records is not None:
            for block in _blocks_from_records(records):
                self.append_block(block)

    @property
    def records(self) -> list[PairRecord]:
        """Per-pair view of the columnar store, materialised on demand."""
        return [record for block in self._sink.blocks() for record in block.to_records()]

    def records_for_metric(self, metric_name: str) -> list[PairRecord]:
        return [record for block in self._sink.blocks() if block.metric_name == metric_name
                for record in block.to_records()]

    # -------------------------- Figure 1 ------------------------------
    def oversampled_fraction_by_metric(self) -> dict[str, float]:
        """Fraction of devices per metric currently sampled above the Nyquist rate."""
        counts: dict[str, list[int]] = {}
        for block in self._sink.blocks():
            entry = counts.setdefault(block.metric_name, [0, 0])
            entry[0] += len(block)
            entry[1] += int(np.count_nonzero(block.category == _OVERSAMPLED_CODE))
        return {metric: (counts[metric][1] / counts[metric][0] if counts[metric][0]
                         else float("nan"))
                for metric in self._metric_order}

    # -------------------------- Figure 4 ------------------------------
    def reduction_ratios(self, metric_name: str | None = None,
                         include_unreliable: bool = False) -> np.ndarray:
        """Reduction ratios (current rate / Nyquist rate) for the CDFs of Figure 4.

        Unreliable pairs ("we do not show the cases where we cannot
        reliably detect the Nyquist rate") are excluded by default, exactly
        as the paper does.  With ``include_unreliable=True`` every pair is
        represented: unreliable pairs enter at the conservative ratio
        :data:`UNRELIABLE_RATIO` (1.0), since a trace the estimator deems
        aliased has a Nyquist rate of at least its sampling rate and hence
        admits no reduction.
        """
        parts: list[np.ndarray] = []
        for block in self._sink.blocks():
            if metric_name is not None and block.metric_name != metric_name:
                continue
            usable = block.reliable & ~np.isnan(block.reduction_ratio)
            mask = usable | (~block.reliable) if include_unreliable else usable
            parts.append(np.where(block.reliable, block.reduction_ratio,
                                  UNRELIABLE_RATIO)[mask])
        return np.concatenate(parts) if parts else np.array([])

    # -------------------------- Figure 5 ------------------------------
    def nyquist_rates(self, metric_name: str) -> np.ndarray:
        """Reliable Nyquist-rate estimates for one metric (the Figure 5 boxes)."""
        parts = [block.nyquist_rate[block.reliable & (block.nyquist_rate > 0)]
                 for block in self._sink.blocks() if block.metric_name == metric_name]
        return np.concatenate(parts) if parts else np.array([])

    # -------------------------- Headline text -------------------------
    def headline(self) -> dict[str, float]:
        """The §3.2 headline statistics.

        Keys mirror the paper's claims: total pairs, distinct metrics, the
        fraction sampled above the Nyquist rate (paper: 89 %), the fraction
        needing closer inspection (paper: ~11 %), and the fraction of
        reliable pairs whose rate could be reduced by at least
        10/100/1000x (paper: ~20 % at 1000x).

        The needs-inspection population is reported split by cause:
        ``aliased_suspect_fraction`` counts the pairs the estimator
        refused (with the calibrated ``aliased_band_fraction`` default
        this is where the paper's "record -1" pairs land), while
        ``marginal_fraction`` counts reliably estimated pairs whose
        cut-off sits essentially at the measurable band edge (reduction
        ratio pinned near 1).  ``undersampled_or_suspect_fraction`` is the
        legacy aggregate of the two (the complement of
        ``oversampled_fraction``); earlier versions reported *only* that
        conflated number, making it impossible to tell how much of the
        ~11 % was refused estimates versus at-the-edge marginal pairs.
        """
        total = len(self)
        if total == 0:
            return {"pairs": 0.0}
        oversampled = marginal = suspect = 0
        for block in self._sink.blocks():
            oversampled += int(np.count_nonzero(block.category == _OVERSAMPLED_CODE))
            marginal += int(np.count_nonzero(block.category == _MARGINAL_CODE))
            suspect += int(np.count_nonzero(block.category == _SUSPECT_CODE))
        ratios = self.reduction_ratios()
        temperature_rates = (self.nyquist_rates("Temperature")
                             if "Temperature" in self._metric_order else np.array([]))
        headline = {
            "pairs": float(total),
            "metrics": float(len(self._metric_order)),
            "oversampled_fraction": oversampled / total,
            "marginal_fraction": marginal / total,
            "aliased_suspect_fraction": suspect / total,
            "undersampled_or_suspect_fraction": (marginal + suspect) / total,
            "reducible_10x_fraction": float((ratios >= 10).mean()) if ratios.size else float("nan"),
            "reducible_100x_fraction": float((ratios >= 100).mean()) if ratios.size else float("nan"),
            "reducible_1000x_fraction": float((ratios >= 1000).mean()) if ratios.size else float("nan"),
            "median_reduction_ratio": float(np.median(ratios)) if ratios.size else float("nan"),
            "quarantined_pairs": float(self._failure_sink.rows),
        }
        if temperature_rates.size:
            headline["temperature_nyquist_min_hz"] = float(np.min(temperature_rates))
            headline["temperature_nyquist_max_hz"] = float(np.max(temperature_rates))
        return headline

    # -------------------------- accuracy vs ground truth ---------------
    def estimation_accuracy(self) -> dict[str, float]:
        """How close the estimated Nyquist rates are to the generators' ground truth.

        Only meaningful for synthetic data (where the true bandwidth is
        known); reported as the median and 90th percentile of the ratio
        ``estimate / true`` over reliable pairs whose true rate is actually
        observable from a trace of this length (at least a couple of cycles
        fit in the trace -- slower signals are necessarily clamped to the
        trace's frequency resolution and would only measure that clamp).
        A ratio near 1 means the §3.2 estimator recovers the planted rate.
        """
        parts: list[np.ndarray] = []
        for block in self._sink.blocks():
            mask = block.reliable & (block.true_nyquist_rate > 0)
            safe_duration = np.where(block.trace_duration > 0, block.trace_duration, 1.0)
            unobservable = (block.trace_duration > 0) & \
                (block.true_nyquist_rate < 4.0 / safe_duration)
            mask &= ~unobservable
            if mask.any():
                parts.append(block.nyquist_rate[mask] / block.true_nyquist_rate[mask])
        if not parts:
            return {"pairs": 0.0}
        array = np.concatenate(parts)
        if array.size == 0:
            return {"pairs": 0.0}
        return {
            "pairs": float(array.size),
            "median_ratio": float(np.median(array)),
            "p10_ratio": float(np.percentile(array, 10)),
            "p90_ratio": float(np.percentile(array, 90)),
        }


# ----------------------------------------------------------------------
def _block_from_estimates(metric_name: str, pairs: Sequence[TracePair],
                          estimates: Sequence[NyquistEstimate], current_rate: float,
                          oversample_threshold: float,
                          trace_duration: float) -> RecordBlock:
    """Compact one batch's estimates into a columnar block (classification included)."""
    rows = len(pairs)
    nyquist = np.fromiter((e.nyquist_rate for e in estimates), np.float64, rows)
    ratio = np.fromiter((e.reduction_ratio for e in estimates), np.float64, rows)
    reliable = np.fromiter((e.reliable for e in estimates), bool, rows)
    # Vectorised _classify: refused -> suspect; reliable with headroom ->
    # oversampled; the rest (including nan ratios) -> marginal.
    category = np.where(~reliable, _SUSPECT_CODE,
                        np.where(ratio > oversample_threshold, _OVERSAMPLED_CODE,
                                 _MARGINAL_CODE)).astype(np.int8)
    return RecordBlock(
        metric_name=metric_name,
        device_ids=np.array([pair.device.device_id for pair in pairs], dtype=np.str_),
        current_rate=np.full(rows, current_rate),
        nyquist_rate=nyquist,
        reduction_ratio=ratio,
        category=category,
        reliable=reliable,
        true_nyquist_rate=np.fromiter((pair.parameters.true_nyquist_rate for pair in pairs),
                                      np.float64, rows),
        trace_duration=np.full(rows, trace_duration),
    )


@dataclass(frozen=True)
class _SurveyEvaluator:
    """The survey's per-batch step for the slice driver: estimate, classify, compact."""

    estimator: NyquistEstimator
    oversample_threshold: float
    fft_workers: int | None
    trace_duration: float

    kind: ClassVar[str] = "survey"
    stage: ClassVar[str] = "estimate"

    def params_token(self) -> str:
        return (f"{self.estimator.cache_token()}|"
                f"oversample_threshold={self.oversample_threshold!r}")

    def evaluate(self, metric_name: str, batch: TraceBatch) -> list[RecordBlock]:
        estimates = self.estimator.estimate_batch(batch.values, batch.interval,
                                                  fft_workers=self.fft_workers)
        return [_block_from_estimates(metric_name, batch.pairs, estimates,
                                      batch.sampling_rate, self.oversample_threshold,
                                      self.trace_duration)]


def run_survey(dataset: TraceSource, estimator: NyquistEstimator | None = None,
               oversample_threshold: float = 1.25,
               metrics: Sequence[str] | None = None,
               limit_per_metric: int | None = None,
               chunk_size: int = 1024,
               workers: int | None = None,
               fft_workers: int | None = None,
               sink: RecordSink | None = None,
               on_error: OnError = "raise",
               failure_sink: RecordSink | None = None,
               store: "RecordStore | None" = None,
               retry_sleep: Callable[[float], None] = time.sleep) -> SurveyResult:
    """Run the Section 3.2 analysis over a whole dataset.

    Parameters
    ----------
    dataset:
        Any :class:`~repro.telemetry.source.TraceSource`: a synthetic
        :class:`~repro.telemetry.dataset.FleetDataset` or a recorded
        :class:`~repro.telemetry.measured.MeasuredFleetDataset` (a
        directory exported by ``FleetDataset.export`` surveys
        byte-identically to the in-memory dataset it came from).
    estimator:
        Nyquist estimator; defaults to the paper's 99 % configuration.
    oversample_threshold:
        Reduction ratio above which a pair counts as over-sampled.  The
        paper's wording is simply "higher than their Nyquist rate"; a small
        margin (default 1.25x) keeps borderline pairs -- whose estimate sits
        within estimation noise of the sampling rate itself -- out of the
        over-sampled bucket.
    metrics:
        Restrict the survey to these metrics (default: all in the dataset).
    limit_per_metric:
        Cap the number of pairs analysed per metric (useful for quick runs
        and benchmarks).
    chunk_size:
        Maximum traces held in memory at once (memory is bounded at
        ``chunk_size * samples_per_trace`` floats regardless of fleet
        size); also the pair-slice size of the slice driver, so each
        columnar result block holds at most ``chunk_size`` rows.
    workers:
        Number of survey worker *processes*.  With ``workers >= 2``,
        trace production and estimation both fan out to a process pool:
        workers receive picklable batch specs (``dataset.worker_spec()`` +
        a pair-slice address), re-open the source locally and return
        compact columnar blocks.  The records are byte-identical to a
        single-process run.  Synthetic fleets ship their config and
        regenerate; measured fleets ship their directory and serve
        file-offset slices of the manifest.
    fft_workers:
        pocketfft thread count for the batched engine's ``rfft`` (see
        :func:`repro.core.batch.batch_estimate`).
    sink:
        Destination for the columnar result blocks.  Default: in-memory.
        Pass a :class:`SpillingRecordSink` to stream records to disk so a
        100k+-pair survey's memory stays bounded by ``chunk_size``.
    on_error:
        ``"raise"`` (default) fails fast on the first broken pair or
        batch, as the pipeline always has.  ``"quarantine"`` isolates
        failures at the slice boundary: a failing slice is salvaged pair
        by pair, healthy pairs complete with records byte-identical to a
        no-fault run, and every failure is recorded as a
        :class:`~repro.records.FailureRecord` row flowing into
        ``failure_sink`` (see ``SurveyResult.quarantined`` and the
        ``quarantined_pairs`` headline entry).
    failure_sink:
        Destination for the quarantined-failure blocks (default:
        in-memory; pass a :class:`SpillingRecordSink` on its own
        directory for out-of-core runs).
    store:
        A :class:`~repro.records.RecordStore` for incremental reruns.
        Each ``chunk_size`` slice is fingerprinted over its pair contents
        and analysis parameters; fingerprints already in the store are
        served from its ``.rcb`` blocks without generating a trace or
        calling the estimator, and misses are computed exactly as a
        store-less run would (including the multi-worker fan-out) then
        written back atomically.  Results are byte-identical either way;
        ``SurveyResult.cache_hits`` / ``cache_misses`` count the pairs on
        each path.  Quarantined slices are never cached.
    retry_sleep:
        Sleep callable for the backoff delays (injectable so tests and
        benchmarks skip the real waits).  Transient (IO-shaped) batch
        failures and crashed workers are retried under the default
        :class:`~repro.faults.RetryPolicy` (3 attempts, deterministic
        exponential backoff), in multi-worker runs in both error modes
        and in sequential quarantine runs.
    """
    if oversample_threshold < 1:
        raise ValueError("oversample_threshold must be >= 1")
    check_run_options("run_survey", SurveyResult, workers, on_error, sink, failure_sink)
    result = SurveyResult(oversample_threshold=oversample_threshold, sink=sink,
                          failure_sink=failure_sink)
    evaluator = _SurveyEvaluator(estimator or NyquistEstimator(), oversample_threshold,
                                 fft_workers, dataset.trace_duration)
    run_slices(dataset, evaluator, result, metric_names=metrics,
               limit_per_metric=limit_per_metric, chunk_size=chunk_size, workers=workers,
               on_error=on_error, store=store, sleep=retry_sleep)
    return result


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowedPairSummary:
    """Moving-window rate drift of one (metric, device) pair (fleet Figure 7)."""

    metric_name: str
    device_id: str
    windows: int
    reliable_windows: int
    min_rate: float
    max_rate: float
    mean_rate: float
    dynamic_range: float

    @property
    def drifting(self) -> bool:
        """True when the inferred rate moved by more than 2x across windows."""
        return math.isfinite(self.dynamic_range) and self.dynamic_range > 2.0


def run_windowed_survey(dataset: TraceSource,
                        window_seconds: float = FIGURE7_WINDOW_SECONDS,
                        step_seconds: float = FIGURE7_STEP_SECONDS,
                        metrics: Sequence[str] | None = None,
                        limit_per_metric: int | None = None) -> list[WindowedPairSummary]:
    """Run the Figure 7 moving-window sweep over every pair of a fleet.

    This is the paper's continuous re-estimation loop at fleet scale: for
    each (metric, device) pair, slide the Figure 7 window over its trace,
    estimate the Nyquist rate in every position through the vectorised
    windowed sweep (one ``rfft`` per pair for the whole sweep), and
    summarise how much the rate drifts.  Pairs whose ``dynamic_range``
    exceeds 2x (``drifting``) are the ones a fixed sampling rate cannot
    serve -- the motivation for the Section 4 adaptive controller.

    The estimator uses the short-window configuration shared by
    every Figure 7 call site (the adaptive controller, the Figure 7
    bench): detrend + Hann taper so slow trends that do not complete a
    cycle inside a 6-hour window do not leak across the spectrum, and the
    paper's strict "all bins needed" aliasing rule (1.0) because the
    calibrated day-length survey default (0.9) would refuse every
    noise-dominated quiet window instead of reporting its small rate.
    """
    estimator = NyquistEstimator(detrend=True, window="hann", aliased_band_fraction=1.0)
    summaries: list[WindowedPairSummary] = []
    metric_names = list(metrics) if metrics is not None else dataset.metric_names()
    for metric_name in metric_names:
        for pair, trace in dataset.traces(metric_name, limit=limit_per_metric):
            estimates = windowed_nyquist_rates(trace, window_seconds=window_seconds,
                                               step_seconds=step_seconds,
                                               estimator=estimator)
            stats = rate_stability(estimates)
            summaries.append(WindowedPairSummary(
                metric_name=metric_name,
                device_id=pair.device.device_id,
                windows=len(estimates),
                reliable_windows=int(stats["count"]),
                min_rate=stats["min"],
                max_rate=stats["max"],
                mean_rate=stats["mean"],
                dynamic_range=stats["dynamic_range"],
            ))
    return summaries
