"""Lossy-path counts: how many monitored paths through a device are currently lossy.

Path-probing systems (Pingmesh-style, the paper's reference [7]) report a
small integer: the number of source-destination paths whose probes saw
loss in the last interval.  The count behaves like a birth-death process --
paths become lossy and recover -- so the model is a random telegraph-style
integer process whose transition rate is tied to the device's bandwidth
parameter.
"""

from __future__ import annotations

import numpy as np

from ...signals.timeseries import TimeSeries
from ..metrics import MetricSpec
from ..profiles import MetricParameters
from .common import broadband_component, finalize_trace, time_grid

__all__ = ["generate_path_count_trace"]

#: Highest per-step transition probability at which the walk draws its
#: uniforms in blocks.  A block is replayed after every transition, so when
#: transitions are frequent the per-step walk is faster; the two cost the
#: same near 0.06 (one-day traces at 60 s and 15 s on x86-64).
BLOCK_WALK_MAX_PROBABILITY = 0.06

#: Uniforms drawn per block by the block-drawn walk.
WALK_BLOCK = 512


def _transition(current: float, mean_count: float, rng: np.random.Generator) -> float:
    """The count after one transition: a path joins or leaves the lossy set."""
    # Mild pull towards the long-run mean keeps the count from wandering off.
    pull = 0.5 * (mean_count - current) / (mean_count + 1.0)
    direction = 1.0 if rng.random() < 0.5 + pull else -1.0
    return max(current + direction * float(rng.integers(1, 3)), 0.0)


def _step_walk(values: np.ndarray, current: float, mean_count: float,
               transition_probability: float, rng: np.random.Generator) -> None:
    """Fill ``values`` one step (one ``rng.random()`` draw) at a time."""
    for i in range(values.shape[0]):
        if rng.random() < transition_probability:
            current = _transition(current, mean_count, rng)
        values[i] = current


def _block_walk(values: np.ndarray, current: float, mean_count: float,
                transition_probability: float, rng: np.random.Generator) -> None:
    """Fill ``values`` exactly as :func:`_step_walk` does, drawing uniforms in blocks.

    A step without a transition consumes exactly one ``rng.random()``, and
    ``rng.random(k)`` is the same stream as ``k`` scalar calls.  So draw a
    block, find its first uniform below the transition probability, then
    restore the generator state saved before the block and replay the draws
    up to and including that one; the transition itself then draws as
    scalar calls.  A block without a transition is simply consumed.  Only
    the public ``Generator`` API is used, so this holds for any
    ``BitGenerator``.
    """
    n = values.shape[0]
    i = 0
    while i < n:
        state = rng.bit_generator.state
        block = rng.random(min(WALK_BLOCK, n - i))
        below = block < transition_probability
        step = int(below.argmax())
        if not below[step]:
            values[i:i + block.shape[0]] = current
            i += block.shape[0]
            continue
        values[i:i + step] = current
        rng.bit_generator.state = state
        rng.random(step + 1)
        current = _transition(current, mean_count, rng)
        values[i + step] = current
        i += step + 1


def generate_path_count_trace(spec: MetricSpec, params: MetricParameters,
                              duration: float, interval: float,
                              rng: np.random.Generator | None = None,
                              device_name: str = "") -> TimeSeries:
    """Generate one lossy-path-count trace (a small, slowly jumping integer).

    Each step draws one uniform and, below the transition probability,
    moves the count (:func:`_transition`).  Up to
    :data:`BLOCK_WALK_MAX_PROBABILITY` the uniforms are drawn in blocks
    (:func:`_block_walk`); the trace and the generator's final state are
    the same either way.
    """
    rng = rng or np.random.default_rng(params.seed)
    n = time_grid(duration, interval).shape[0]

    mean_count = max(params.level, 1.0)
    # Per-step transition probability: a path changes state roughly once
    # per 1/bandwidth seconds, so over one polling interval the chance of a
    # change is bandwidth * interval (capped below 1).
    transition_probability = min(params.bandwidth_hz * interval, 0.5)

    values = np.empty(n)
    current = float(rng.poisson(mean_count))
    walk = _block_walk if transition_probability <= BLOCK_WALK_MAX_PROBABILITY else _step_walk
    walk(values, current, mean_count, transition_probability, rng)

    if params.broadband:
        values = values + np.abs(broadband_component(n, mean_count * 0.5, rng))

    return finalize_trace(values, spec, params, interval, rng, device_name)
