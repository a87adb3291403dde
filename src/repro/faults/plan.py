"""Seeded fault plans: a picklable, coordination-free description of chaos.

A :class:`FaultPlan` decides, for every (metric, device) pair, whether it
is faulty and which fault it suffers.  The assignment is a pure function
of ``(plan.seed, metric, device)`` via a :mod:`hashlib` digest -- *not*
the builtin ``hash()``, which is randomised per process -- so a plan
pickled to a survey worker injects exactly the faults the parent (and the
test asserting coverage) expects, with no shared state.

The only mutable state a plan touches is its optional ``state_dir``:
faults whose whole point is *recovering* on retry (``io-error``: fail the
first N opens, then succeed; worker crashes: die exactly once per batch
slice) persist tiny marker files there so the retry semantics hold across
process boundaries and pool rebuilds.  Plans using only stateless kinds
need no directory at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["FAULT_KINDS", "RAISING_FAULT_KINDS", "DATA_FAULT_KINDS", "FaultPlan",
           "stable_digest", "pair_kind", "pair_rng"]


def stable_digest(seed: int, *parts: str) -> int:
    """Stable 64-bit digest of ``(seed, *parts)``.

    The process-independent RNG root shared by every layer that needs a
    per-(metric, device) decision to come out identical in the parent and
    in pool workers: :class:`FaultPlan` assignments and the seeded
    placements of :mod:`repro.scenarios` transforms.  Built on
    :mod:`hashlib`, never the builtin ``hash()`` (randomised per process).
    """
    payload = ":".join((str(seed), *parts)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def pair_kind(seed: int, fraction: float, kinds: tuple[str, ...], metric_name: str,
              device_id: str) -> str | None:
    """The kind a ``(metric, device)`` pair draws from ``kinds``, or ``None`` if unaffected.

    The pair's digest places it uniformly in ``[0, 1)``: the first
    ``fraction`` of that range is affected, split evenly over ``kinds``.
    The one assignment rule of :class:`FaultPlan` and
    :class:`~repro.scenarios.transforms.CounterPathology`.
    """
    if not kinds or fraction == 0.0:
        return None
    position = stable_digest(seed, "pair", metric_name, device_id) / 2.0 ** 64
    if position >= fraction:
        return None
    index = int(position / fraction * len(kinds))
    return kinds[min(index, len(kinds) - 1)]


def pair_rng(seed: int, metric_name: str, device_id: str) -> np.random.Generator:
    """Seeded generator for a pair's fault placement (window positions)."""
    return np.random.default_rng(stable_digest(seed, "rng", metric_name, device_id))


#: Fault kinds that make the affected pair *fail to load* (quarantine
#: candidates): an unreadable/corrupt trace file, a file cut short, and a
#: transient IO error on the first ``io_error_opens`` opens.
RAISING_FAULT_KINDS: tuple[str, ...] = ("corrupt-trace", "truncated-trace", "io-error")

#: Fault kinds that *degrade the data* but keep the pipeline running: a
#: counter wrap (level reset mid-trace), a device reboot (window pinned to
#: the boot level) and a blackout window backfilled late with the last
#: value seen before the gap.
DATA_FAULT_KINDS: tuple[str, ...] = ("counter-wrap", "device-reboot", "blackout")

#: Every per-pair fault kind a plan may draw from.
FAULT_KINDS: tuple[str, ...] = RAISING_FAULT_KINDS + DATA_FAULT_KINDS


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault assignment for one chaos run.

    Attributes
    ----------
    seed:
        Master seed; the whole fault assignment derives from it.
    fraction:
        Fraction of pairs to afflict (paper-scale acceptance: ~0.05).
        Affected pairs are spread uniformly over ``kinds``.
    kinds:
        Fault kinds to draw from (subset of :data:`FAULT_KINDS`).
    io_error_opens:
        For ``io-error`` pairs: how many opens fail (with ``OSError``)
        before the pair loads cleanly.  ``1`` with a retrying executor
        models a transient NFS hiccup that recovery absorbs; a value at
        or above the retry budget turns it into a quarantined failure.
    malformed_line_every:
        For :func:`~repro.faults.inject.corrupt_dump_lines`: mangle every
        Nth data line of the dump.
    crash_slices:
        ``(metric_name, offset)`` batch-slice addresses whose *worker
        process* dies (``os._exit``) the first time it serves them --
        the ``BrokenProcessPool`` drill.  Crashes fire only inside pool
        workers, never in the parent, and exactly once per slice
        (tracked via ``state_dir``).
    state_dir:
        Directory for the once-only markers behind ``io-error`` and
        ``crash_slices``; required when either is in play.
    """

    seed: int = 0
    fraction: float = 0.05
    kinds: tuple[str, ...] = ("corrupt-trace",)
    io_error_opens: int = 1
    malformed_line_every: int = 101
    crash_slices: tuple[tuple[str, int], ...] = ()
    state_dir: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        unknown = [kind for kind in self.kinds if kind not in FAULT_KINDS]
        if unknown:
            raise ValueError(f"unknown fault kinds {unknown}; "
                             f"choose from {list(FAULT_KINDS)}")
        if self.io_error_opens < 1:
            raise ValueError("io_error_opens must be >= 1")
        if self.malformed_line_every < 2:
            raise ValueError("malformed_line_every must be >= 2")
        if self.state_dir is None and ("io-error" in self.kinds or self.crash_slices):
            raise ValueError(
                "fault plans with 'io-error' pairs or crash_slices need a state_dir "
                "(their once-only semantics persist across processes via marker files)")

    # ------------------------------------------------------------------
    # Pure per-pair assignment
    # ------------------------------------------------------------------
    def kind_for(self, metric_name: str, device_id: str) -> str | None:
        """The fault this pair suffers, or ``None`` for a healthy pair (:func:`pair_kind`)."""
        return pair_kind(self.seed, self.fraction, self.kinds, metric_name, device_id)

    def affects(self, metric_name: str, device_id: str) -> bool:
        """True when this pair is on the fault list."""
        return self.kind_for(metric_name, device_id) is not None

    def rng_for(self, metric_name: str, device_id: str) -> np.random.Generator:
        """Seeded generator for this pair's fault placement (:func:`pair_rng`)."""
        return pair_rng(self.seed, metric_name, device_id)

    def corrupts_line(self, line_number: int) -> bool:
        """True when 1-based data line ``line_number`` of a dump gets mangled."""
        return line_number % self.malformed_line_every == 0

    # ------------------------------------------------------------------
    # Once-only state (shared across processes via marker files)
    # ------------------------------------------------------------------
    def _state_path(self, label: str) -> Path:
        if self.state_dir is None:
            raise ValueError(f"fault {label!r} needs a plan with state_dir set")
        directory = Path(self.state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        name = hashlib.sha256(f"{self.seed}:{label}".encode()).hexdigest()[:24]
        return directory / name

    def consume_io_error(self, metric_name: str, device_id: str) -> bool:
        """True while this pair's open should fail; counts opens persistently.

        The first ``io_error_opens`` calls (across *all* processes sharing
        the ``state_dir``) return True; later calls return False, which is
        what lets a bounded retry recover the pair deterministically.
        """
        path = self._state_path(f"io:{metric_name}:{device_id}")
        count = int(path.read_text()) if path.exists() else 0
        if count >= self.io_error_opens:
            return False
        path.write_text(str(count + 1))
        return True

    def consume_crash(self, metric_name: str, offset: int) -> bool:
        """True exactly once per crash slice, across every process."""
        path = self._state_path(f"crash:{metric_name}:{offset}")
        try:
            path.touch(exist_ok=False)
        except FileExistsError:
            return False
        return True
