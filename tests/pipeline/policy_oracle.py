"""Scalar reference collections of the built-in sampling policies.

Each policy collects in the library through one batched method,
``SamplingPolicy.collect_batch``.  The functions here collect from one
reference trace at a time the straightforward way -- plain polling, a
time-window split with one scalar ``NyquistEstimator.estimate``, a fresh
controller run -- so the batched path has an independent reference to be
checked against bit for bit.

The multi-rate merges are kept here as they were written before the
library described its streams as runs on the reference grid
(``Collection.streams``): the Nyquist-static ``np.repeat`` merge and the
adaptive run's per-window merge (:func:`merge_windows`).  They never
call the library's layout, so the laid-out streams are checked against
an independent copy of the rule, byte for byte.

Tests import these as ``from policy_oracle import ...``; pytest puts this
directory on ``sys.path`` for the test modules beside it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.adaptive import DEFAULT_HEADROOM
from repro.core.errors import compare
from repro.core.nyquist import NyquistEstimator
from repro.core.reconstruction import reconstruct
from repro.core.resampling import decimation_factor
from repro.pipeline.policies import (AdaptiveDualRatePolicy, FixedRatePolicy,
                                     NyquistStaticPolicy, PolicyBatchEvaluation,
                                     SamplingPolicy)
from repro.signals.timeseries import TimeSeries


def poll(series: TimeSeries, rate: float) -> TimeSeries:
    """What a poller at ``rate`` reads off ``series``: plain decimation."""
    return series.decimate(decimation_factor(series.sampling_rate, rate))


def time_window(series: TimeSeries, t_start: float, t_stop: float) -> TimeSeries:
    """Samples of ``series`` whose timestamps fall in ``[t_start, t_stop)``."""
    first = max(int(math.ceil((t_start - series.start_time) / series.interval)), 0)
    last = max(int(math.ceil((t_stop - series.start_time) / series.interval)), first)
    return series.segment(first, last)


def collect_fixed(policy: FixedRatePolicy, reference: TimeSeries) -> tuple[int, TimeSeries]:
    collected = poll(reference, min(1.0 / policy.interval, reference.sampling_rate))
    return len(collected), collected


def collect_nyquist_static(policy: NyquistStaticPolicy,
                           reference: TimeSeries) -> tuple[int, TimeSeries]:
    production_rate = min(1.0 / policy.production_interval, reference.sampling_rate)
    split_time = reference.start_time + reference.duration * policy.calibration_fraction
    calibration = poll(time_window(reference, reference.start_time, split_time),
                       production_rate)
    remainder = time_window(reference, split_time, reference.end_time)
    estimate = NyquistEstimator().estimate(calibration) if len(calibration) >= 2 else None
    if estimate is not None and estimate.reliable:
        target_rate = min(estimate.nyquist_rate * DEFAULT_HEADROOM, production_rate)
    else:
        target_rate = production_rate
    steady = poll(remainder, target_rate) if len(remainder) >= 2 else remainder
    # Merge the calibration prefix and the steady suffix at the finer
    # calibration interval.
    if len(steady):
        repeat = max(int(round(steady.interval / calibration.interval)), 1)
        merged = np.concatenate([calibration.values, np.repeat(steady.values, repeat)])
    else:
        merged = calibration.values
    collected = TimeSeries(merged, calibration.interval, start_time=reference.start_time)
    return len(calibration) + len(steady), collected


def merge_windows(chunks: list[TimeSeries], reference: TimeSeries) -> TimeSeries:
    """Per-window chunks concatenated into one regular stream.

    Windows sampled at different rates are aligned to the finest
    interval used anywhere in the run: each sample of a coarser window
    is repeated to fill its slots.
    """
    if not chunks:
        return TimeSeries(np.empty(0), reference.interval, reference.start_time, reference.name)
    finest = min(chunk.interval for chunk in chunks if len(chunk))
    pieces: list[np.ndarray] = []
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        repeat = max(int(round(chunk.interval / finest)), 1)
        pieces.append(np.repeat(chunk.values, repeat))
    values = np.concatenate(pieces) if pieces else np.empty(0)
    return TimeSeries(values, finest, reference.start_time, reference.name)


def collect_adaptive(policy: AdaptiveDualRatePolicy,
                     reference: TimeSeries) -> tuple[int, TimeSeries]:
    run = policy.run_controller(reference)
    chunks = [TimeSeries(reference.values[start:stop:stride], reference.interval * stride,
                         reference.start_time + start * reference.interval, reference.name)
              for start, stop, stride in run.segments]
    return run.total_samples_collected, merge_windows(chunks, reference)


def collect(policy: SamplingPolicy, reference: TimeSeries) -> tuple[int, TimeSeries]:
    """(samples collected, collected stream) of a built-in ``policy`` on one trace."""
    if isinstance(policy, FixedRatePolicy):
        return collect_fixed(policy, reference)
    if isinstance(policy, NyquistStaticPolicy):
        return collect_nyquist_static(policy, reference)
    if isinstance(policy, AdaptiveDualRatePolicy):
        return collect_adaptive(policy, reference)
    raise TypeError(f"no reference collection for {type(policy).__name__}")


def evaluate_rows(policy: SamplingPolicy, values: np.ndarray,
                  interval: float) -> PolicyBatchEvaluation:
    """``evaluate_batch`` computed row by row from :func:`collect`.

    Each row is collected on its own, reconstructed with the scalar
    ``reconstruct`` and compared with the scalar ``compare``.
    """
    rows = values.shape[0]
    samples = np.zeros(rows, dtype=np.int64)
    mean_rate = np.zeros(rows)
    nrmse = np.zeros(rows)
    max_abs = np.zeros(rows)
    for index in range(rows):
        reference = TimeSeries(values[index], interval)
        samples[index], collected = collect(policy, reference)
        if len(collected) < 2:
            raise ValueError(f"policy {policy.name!r} collected only {len(collected)} "
                             "sample(s)")
        error = compare(reference, reconstruct(collected, reference.sampling_rate))
        mean_rate[index] = samples[index] / reference.duration
        nrmse[index] = error.nrmse
        max_abs[index] = error.max_abs
    return PolicyBatchEvaluation(policy.name, samples, mean_rate, nrmse, max_abs)
