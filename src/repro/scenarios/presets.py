"""The frozen scenario/fabric/suite presets behind the canonical matrix.

``benchmarks/bench_scenarios.py`` and ``tests/scenarios/`` must agree on
every parameter -- the golden ordering summary and the pinned inversion
cells are only meaningful against one specific matrix.  This module is
that single source of truth.

The tuning is deliberate and empirically verified:

* 12 h traces with a 4 h adaptive window: long enough for the adaptive
  controller to settle and amortize its probe cost, so the *stationary*
  cell reproduces the paper's fixed > nyquist-static > adaptive ordering
  (a 1 h window makes probing overhead invert even the stationary cell).
* ``incident`` shifts at 55% of the trace -- after the controller has
  settled -- so its steady -> probe :class:`~repro.core.adaptive.ModeTransition`
  is a *measured* re-probe latency.
* ``flap-churn`` starts flapping at 30% of the trace, *inside* the
  controller's first window: the controller never gets a quiet window to
  settle in, stays expensive for 70% of the trace, and the adaptive leg
  of the ordering inverts -- the matrix's documented inversion cells.
* ``cal-storm`` lands a broadband incident inside nyquist-static's
  calibration prefix: the ordering still holds, but the static policy's
  saving collapses (its one-shot estimate is inflated for the whole
  trace).
* tones sit at 0.8 of the reference Nyquist frequency, not 1.0 -- a
  sine sampled exactly at Nyquist degenerates to ``(-1)^k sin(phase)``
  and can vanish entirely for unlucky per-pair phases.
"""

from __future__ import annotations

from ..network.monitoring import DeploymentSpec
from ..network.topology import FabricSpec, FatTreeSpec, TopologySpec, WanRingSpec
from ..pipeline.policies import PolicySuite
from .transforms import (BlackoutWindow, CounterPathology, DiurnalCycle, FlappingRegime,
                         RegimeShift, Scenario)

__all__ = ["TRACE_HOURS", "ADAPTIVE_WINDOW_S", "DEFAULT_BLACKOUT", "paper_suite",
           "default_scenarios", "default_fabrics"]

#: Trace length (hours) every preset deployment serves.
TRACE_HOURS = 12.0

#: The adaptive controller's re-estimation window (seconds).
ADAPTIVE_WINDOW_S = 4 * 3600.0

#: The blackout window of the ``blackout`` scenario.
DEFAULT_BLACKOUT = BlackoutWindow(start_fraction=0.5, duration_fraction=0.15)


def paper_suite() -> PolicySuite:
    """The three-policy suite every matrix cell is surveyed under."""
    return PolicySuite(production_oversample=4.0, adaptive_window=ADAPTIVE_WINDOW_S)


def default_scenarios() -> list[Scenario]:
    """The canonical scenario rows, in matrix declaration order."""
    return [
        Scenario("stationary", (),
                 "fleet as generated; the paper's own operating point"),
        Scenario("diurnal", (DiurnalCycle(period=6 * 3600.0, amplitude=0.3),),
                 "slow multiplicative load cycle; ordering should hold"),
        Scenario("incident",
                 (RegimeShift(shift_fraction=0.55, frequency_fraction=0.8,
                              amplitude=2.0),),
                 "post-settle regime shift; re-probe latency is measured here"),
        Scenario("cal-storm",
                 (RegimeShift(shift_fraction=0.05, frequency_fraction=0.8,
                              amplitude=3.0),),
                 "broadband incident during static calibration; savings collapse"),
        Scenario("flap-churn",
                 (FlappingRegime(onset_fraction=0.3, period=4 * 3600.0, duty=0.5,
                                 frequency_fraction=0.8, amplitude=2.0),),
                 "recurring regime churn from the first window; adaptive leg inverts"),
        Scenario("faulty-counters", (CounterPathology(),),
                 "counter wraps and reboots promoted from the chaos layer"),
        Scenario("blackout", (DEFAULT_BLACKOUT,),
                 "partition flattens a window; backfill arrives late at ingest"),
    ]


def _deploy(topology: FabricSpec, *, hours: float) -> DeploymentSpec:
    return DeploymentSpec(topology=topology, trace_duration=hours * 3600.0,
                          seed=11, oversample_factor=4.0)


def default_fabrics(*, hours: float = TRACE_HOURS) -> dict[str, DeploymentSpec]:
    """The canonical fabric columns: leaf-spine, 3-tier Clos, WAN ring."""
    return {
        "leaf-spine": _deploy(TopologySpec(num_spines=2, num_leaves=2,
                                           servers_per_leaf=2), hours=hours),
        "fat-tree": _deploy(FatTreeSpec(k=4), hours=hours),
        "wan-ring": _deploy(WanRingSpec(num_sites=3, routers_per_site=1,
                                        servers_per_site=2), hours=hours),
    }

