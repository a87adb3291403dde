"""Scenario library: adversarial workloads x fabrics for the policy tradeoff.

The paper's headline table (fixed > nyquist-static > adaptive cost at
bounded error) is only as strong as the workloads it was checked on.
This package turns "scenario diversity" into a harness:

* :mod:`repro.scenarios.transforms` -- deterministic, picklable
  per-pair transforms (diurnal load cycles, mid-trace regime shifts,
  counter wraps/reboots promoted from the chaos layer, blackout windows
  with late backfill) plus :class:`ScenarioTraceSource`, which serves any
  :class:`~repro.telemetry.source.TraceSource` under a transform stack.
* :mod:`repro.scenarios.matrix` -- the (scenario x fabric x policy)
  harness: every cell surveyed with ``run_policy_survey``, hop-priced on
  its own fabric, with an ordering verdict and the adaptive controller's
  measured re-probe latency.
"""

from .matrix import (ADAPTIVE, FIXED, NYQUIST_STATIC, MatrixCell, MatrixResult,
                     evaluate_cell, run_matrix)
from .presets import DEFAULT_BLACKOUT, default_fabrics, default_scenarios, paper_suite
from .transforms import (BlackoutWindow, CounterPathology, DiurnalCycle, FlappingRegime,
                         RegimeShift, Scenario, ScenarioSourceSpec, ScenarioTraceSource,
                         ScenarioTransform, apply_transforms)

__all__ = [
    "ScenarioTransform", "DiurnalCycle", "RegimeShift", "FlappingRegime",
    "CounterPathology",
    "BlackoutWindow", "Scenario", "ScenarioSourceSpec", "ScenarioTraceSource",
    "apply_transforms",
    "FIXED", "NYQUIST_STATIC", "ADAPTIVE",
    "MatrixCell", "MatrixResult", "evaluate_cell", "run_matrix",
    "DEFAULT_BLACKOUT", "paper_suite", "default_scenarios", "default_fabrics",
]
