"""Telemetry distortions: counter wraps, device reboots, blackout backfill.

Production counters do not degrade only through random noise -- they wrap
(a 32-bit octet counter rolls over and the poller's rate derivation
re-baselines), the device reboots (a window of samples pinned to the
boot-time level) or the collector loses the device for a while and
backfills the gap afterwards with the last value it saw.  The paper's
cost/quality argument has to survive those pathologies, so they are
modelled here as *pure functions of (values, placement)*: every caller --
the chaos layer's :class:`~repro.faults.FaultInjectingTraceSource`, which
treats them as faults, and :mod:`repro.scenarios`, which treats them as
first-class workload semantics -- applies byte-identical distortions.

All functions return a new array; the input is never mutated.
"""

from __future__ import annotations

import numpy as np

__all__ = ["counter_wrap", "reboot_window", "blackout_backfill", "window_bounds",
           "apply_data_fault"]


def counter_wrap(values: np.ndarray, position: int) -> np.ndarray:
    """Re-baseline everything from ``position`` to the trace's starting level.

    Models a counter reset mid-trace: the level accumulated so far is
    lost, and the poller's samples after the wrap continue from the
    initial level.  The *shape* of the signal after the wrap is preserved
    (rates derived from differences are unaffected except at the wrap
    sample itself), which is exactly how a wrapped counter presents.
    """
    rows = values.shape[0]
    if not 0 <= position <= rows:
        raise ValueError(f"wrap position {position} outside the trace ({rows} samples)")
    out = values.copy()
    if rows == 0 or position >= rows:
        return out
    out[position:] -= out[position] - out[0]
    return out


def reboot_window(values: np.ndarray, start: int, width: int) -> np.ndarray:
    """Pin ``[start, start + width)`` to the boot-time (first-sample) level.

    Models a device reboot: while the device restarts, its management
    plane reports the freshly initialised value instead of the live one.
    """
    start, stop = window_bounds(values.shape[0], start, width)
    out = values.copy()
    if values.shape[0]:
        out[start:stop] = out[0]
    return out


def blackout_backfill(values: np.ndarray, start: int, width: int) -> np.ndarray:
    """Flatten ``[start, start + width)`` to the last value before the gap.

    Models a partition/blackout window with late backfill: the collector
    lost the device, and when connectivity returned the archive was
    backfilled with the last value seen before the gap (the
    "cache-to-the-future" archive shape).  The arrival-order half of the
    scenario -- those samples reaching ingest *late*, out of order --
    changes nothing, because ingest output depends only on the update
    set; the scenario tests pin that with late-backfill dumps.
    """
    start, stop = window_bounds(values.shape[0], start, width)
    out = values.copy()
    if values.shape[0]:
        out[start:stop] = out[start]
    return out


def window_bounds(rows: int, start: int, width: int) -> tuple[int, int]:
    """Validated, clipped ``[start, stop)`` bounds of a distortion window."""
    if start < 0:
        raise ValueError(f"window start {start} must be >= 0")
    if width < 1:
        raise ValueError(f"window width {width} must be >= 1")
    start = min(start, max(rows - 1, 0))
    return start, min(start + width, rows)


def apply_data_fault(kind: str, values: np.ndarray, rng: np.random.Generator,
                     window_fraction: float = 0.2) -> np.ndarray:
    """Apply one named distortion with its canonical seeded placement.

    The placement convention (wrap point drawn from the middle half of the
    trace; window start drawn uniformly, window covering
    ``window_fraction`` of the trace) is shared verbatim between the chaos
    layer and the scenario library: both draw from the same per-pair RNG,
    so a ``counter-wrap`` injected as a fault and one declared as workload
    semantics land on identical samples.  The RNG is always advanced the
    same number of draws per kind, keeping downstream draws aligned.
    """
    rows = values.shape[0]
    if kind == "counter-wrap":
        position = int(rng.integers(rows // 4, 3 * rows // 4)) if rows >= 4 else 0
        return counter_wrap(values, position)
    if not 0.0 < window_fraction < 1.0:
        raise ValueError("window_fraction must be in (0, 1)")
    width = max(1, int(window_fraction * rows))
    start = int(rng.integers(0, max(rows - width, 1)))
    if kind == "device-reboot":
        return reboot_window(values, start, width)
    if kind == "blackout":
        return blackout_backfill(values, start, width)
    raise ValueError(f"unknown data fault kind {kind!r}; choose from "
                     "('counter-wrap', 'device-reboot', 'blackout')")
