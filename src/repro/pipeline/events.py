"""Operational events and detection scoring.

The reason operators over-sample is fear of missing events ("admins often
express concern that collecting less information could lead to missing out
on important insights").  To quantify that fear, this module injects the
kinds of events §4.2 discusses -- fail-stop level shifts, link flaps
(bursts of FCS errors), transient spikes -- into reference traces and
scores how quickly each sampling policy's collected stream reveals them.

The adaptive controller is itself an event source: its probe/settle mode
changes (:class:`~repro.core.adaptive.ModeTransition`, re-exported here)
are how the scenario matrix *measures* re-probe latency after a regime
shift -- :func:`reprobe_latency` and :func:`resettle_latency` score the
transition stream against the known shift time, instead of inferring the
controller's reaction from nrmse drift.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.adaptive import ModeTransition
from ..signals.timeseries import TimeSeries

__all__ = ["EventKind", "InjectedEvent", "inject_event", "DetectionOutcome", "score_detection",
           "ModeTransition", "reprobe_latency", "resettle_latency"]


class EventKind(enum.Enum):
    """Kinds of operational events the simulator can inject."""

    STEP = "step"          # fail-stop: the metric jumps to a new level and stays
    SPIKE = "spike"        # transient: a short excursion that returns to normal
    BURST = "burst"        # link-flap style: repeated excursions over a period


@dataclass(frozen=True)
class InjectedEvent:
    """Description of an event injected into a trace."""

    kind: EventKind
    start_time: float
    magnitude: float
    duration: float


def inject_event(series: TimeSeries, kind: EventKind, start_time: float,
                 magnitude: float) -> tuple[TimeSeries, InjectedEvent]:
    """Inject an event into ``series`` and return (modified trace, event record).

    ``magnitude`` is expressed in the trace's own units (add it to the
    affected samples).  A step persists to the end of the trace, a spike
    lasts one sample and a burst 2 % of the trace, flapping on and off in
    a pattern seeded by 0.
    """
    if len(series) == 0:
        raise ValueError("cannot inject an event into an empty trace")
    if not series.start_time <= start_time < series.end_time:
        raise ValueError("start_time must fall inside the trace")
    values = series.values.copy()
    times = series.times()
    if kind == EventKind.STEP:
        duration = series.end_time - start_time
        mask = times >= start_time
        values[mask] += magnitude
    elif kind == EventKind.SPIKE:
        duration = series.interval
        mask = (times >= start_time) & (times < start_time + duration)
        if not np.any(mask):
            mask[np.argmin(np.abs(times - start_time))] = True
        values[mask] += magnitude
    elif kind == EventKind.BURST:
        duration = 0.02 * series.duration
        mask = (times >= start_time) & (times < start_time + duration)
        count = int(np.count_nonzero(mask))
        if count == 0:
            mask[np.argmin(np.abs(times - start_time))] = True
            count = 1
        # A flapping link produces an on/off pattern, not a clean plateau.
        pattern = (np.random.default_rng(0).random(count) < 0.6).astype(float)
        values[mask] += magnitude * pattern
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown event kind {kind!r}")
    event = InjectedEvent(kind=kind, start_time=start_time, magnitude=magnitude,
                          duration=float(duration))
    return series.with_values(values), event


#: An event is detected once a collected sample leaves ``baseline +- k * sigma``
#: of the pre-event stream (or half the event's magnitude, if wider).
_SIGMA_MULTIPLIER: float = 4.0


def _detection_time(collected: TimeSeries, event: InjectedEvent) -> float | None:
    """Time at which the event becomes visible in ``collected`` (None = missed).

    The first collected sample crossing a threshold, which is how simple
    production alerting rules work: ``baseline + k * sigma`` computed on
    the pre-event part of the stream.  A negative-magnitude event (a
    fail-stop that drops the metric) crosses ``baseline - k * sigma``
    downwards instead.
    """
    if len(collected) == 0:
        return None
    times = collected.times()
    pre_mask = times < event.start_time
    pre_values = collected.values[pre_mask]
    if pre_values.size >= 2:
        baseline = float(np.mean(pre_values))
        sigma = float(np.std(pre_values))
    else:
        baseline = float(collected.values[0])
        sigma = 0.0
    margin = max(_SIGMA_MULTIPLIER * sigma, 0.5 * abs(event.magnitude))
    post_mask = times >= event.start_time
    post_times = times[post_mask]
    post_values = collected.values[post_mask]
    if event.magnitude < 0:
        crossing = np.nonzero(post_values < baseline - margin)[0]
    else:
        crossing = np.nonzero(post_values > baseline + margin)[0]
    if crossing.size == 0:
        return None
    return float(post_times[crossing[0]])


@dataclass(frozen=True)
class DetectionOutcome:
    """How one policy fared against one injected event."""

    policy_name: str
    detected: bool
    latency: float


def score_detection(policy_name: str, collected: TimeSeries,
                    event: InjectedEvent) -> DetectionOutcome:
    """Score one policy's collected stream against one injected event."""
    when = _detection_time(collected, event)
    if when is None:
        return DetectionOutcome(policy_name, detected=False, latency=math.inf)
    return DetectionOutcome(policy_name, detected=True,
                            latency=max(when - event.start_time, 0.0))


# ----------------------------------------------------------------------
# Adaptive-controller transition scoring
# ----------------------------------------------------------------------
def reprobe_latency(transitions: Sequence[ModeTransition],
                    shift_time: float) -> float | None:
    """Seconds from a regime shift to the controller's first re-probe.

    The latency is measured to the first steady -> probe transition at or
    after ``shift_time``; ``None`` means the controller never noticed
    (it stayed steady for the rest of the run -- either the shift was
    invisible at its settled rate, or the run ended first).  A controller
    still in its initial probe phase at ``shift_time`` has latency 0: it
    is already probing.
    """
    for transition in transitions:
        if transition.kind == "re-probe" and transition.time >= shift_time:
            return transition.time - shift_time
    return None


def resettle_latency(transitions: Sequence[ModeTransition],
                     shift_time: float) -> float | None:
    """Seconds from a regime shift to the controller settling again.

    Measured to the first probe -> steady transition *after* the first
    post-shift re-probe: the full disruption window during which the
    controller pays dual-stream probing cost.  ``None`` when the
    controller never re-probed or never re-settled before the run ended.
    """
    noticed = reprobe_latency(transitions, shift_time)
    if noticed is None:
        return None
    reprobe_time = shift_time + noticed
    for transition in transitions:
        if transition.kind == "settle" and transition.time > reprobe_time:
            return transition.time - shift_time
    return None
