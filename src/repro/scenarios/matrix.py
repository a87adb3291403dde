"""The scenario matrix: (scenario x fabric x policy) cost-quality verdicts.

One cell = one scenario served over one fabric deployment, surveyed with
:func:`~repro.analysis.policy_survey.run_policy_survey` under the paper's
three-policy suite and priced with the deployment's own hop-count
accountant.  The harness records, per cell:

* the **ordering verdict** -- does the paper's fixed > nyquist-static >
  adaptive-dual-rate total-cost ordering hold, and if not, which leg
  inverted;
* the **cost/quality trajectory** -- per-policy total cost, cost relative
  to the fixed baseline, and mean/worst nrmse;
* the adaptive controller's **re-probe latency** -- for scenarios with a
  regime shift, the measured delay between the shift and the controller's
  first steady -> probe :class:`~repro.core.adaptive.ModeTransition`
  (plus the re-settle time and the per-window rate trajectory), taken
  from an actual controller run on a representative transformed trace.

``benchmarks/bench_scenarios.py`` turns a matrix run into
``BENCH_scenarios.json``; ``tests/scenarios/`` pins which cells must
preserve the ordering bit-for-bit and which are known inversions.

Cells fail loudly rather than degrade: a (scenario, fabric) combination
whose source serves zero (metric, device) pairs raises ``ValueError``
naming the cell -- an empty cell recorded as "ordering holds" would be a
silently meaningless row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..analysis.policy_survey import PolicySurveyResult, run_policy_survey
from ..network.cost import TelemetryCostAccountant
from ..network.monitoring import DeploymentSpec
from ..pipeline.events import reprobe_latency, resettle_latency
from ..pipeline.policies import AdaptiveDualRatePolicy, PolicySuite
from ..telemetry.source import TraceSource
from .transforms import Scenario

__all__ = ["FIXED", "NYQUIST_STATIC", "ADAPTIVE", "MatrixCell", "MatrixResult",
           "evaluate_cell", "run_matrix"]

#: The paper suite's policy names, in claimed cost order (most expensive first).
FIXED = "fixed"
NYQUIST_STATIC = "nyquist-static"
ADAPTIVE = "adaptive-dual-rate"


@dataclass(frozen=True)
class MatrixCell:
    """Everything the matrix records for one (scenario, fabric) cell."""

    scenario: str
    fabric: str
    points: int
    verdict: str
    holds_paper_ordering: bool
    relative_costs: dict[str, float]
    total_costs: dict[str, float]
    mean_nrmse: dict[str, float]
    worst_nrmse: dict[str, float]
    shift_time_s: float | None
    reprobe_latency_s: float | None
    resettle_latency_s: float | None
    reprobe_fraction: float | None
    adaptive_rate_trajectory: tuple[tuple[float, float], ...]

    @property
    def key(self) -> str:
        return f"{self.scenario}|{self.fabric}"

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready cell record for ``BENCH_scenarios.json``."""
        return {
            "scenario": self.scenario,
            "fabric": self.fabric,
            "points": self.points,
            "verdict": self.verdict,
            "holds_paper_ordering": self.holds_paper_ordering,
            "relative_costs": {name: self.relative_costs[name]
                               for name in sorted(self.relative_costs)},
            "total_costs": {name: self.total_costs[name]
                            for name in sorted(self.total_costs)},
            "mean_nrmse": {name: self.mean_nrmse[name]
                           for name in sorted(self.mean_nrmse)},
            "worst_nrmse": {name: self.worst_nrmse[name]
                            for name in sorted(self.worst_nrmse)},
            "shift_time_s": self.shift_time_s,
            "reprobe_latency_s": self.reprobe_latency_s,
            "resettle_latency_s": self.resettle_latency_s,
            "reprobe_fraction": self.reprobe_fraction,
            "adaptive_rate_trajectory": [[t, rate] for t, rate
                                         in self.adaptive_rate_trajectory],
        }


@dataclass(frozen=True)
class MatrixResult:
    """All cells of one matrix run, in (scenario, fabric) declaration order."""

    cells: tuple[MatrixCell, ...]

    def cell(self, scenario: str, fabric: str) -> MatrixCell:
        for cell in self.cells:
            if cell.scenario == scenario and cell.fabric == fabric:
                return cell
        raise KeyError(f"no cell for scenario {scenario!r} on fabric {fabric!r}")

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready matrix summary keyed ``"<scenario>|<fabric>"``."""
        return {cell.key: cell.to_payload() for cell in self.cells}

    def inversions(self) -> list[MatrixCell]:
        """The cells where the paper ordering does not hold."""
        return [cell for cell in self.cells if not cell.holds_paper_ordering]


# ----------------------------------------------------------------------
def _ordering_verdict(relative: Mapping[str, float]) -> tuple[str, bool]:
    """The cell's ordering verdict from costs relative to the fixed baseline."""
    nyquist = relative[NYQUIST_STATIC]
    adaptive = relative[ADAPTIVE]
    legs: list[str] = []
    if nyquist >= 1.0:
        legs.append(f"{NYQUIST_STATIC} ({nyquist:.3f}x) >= {FIXED}")
    if adaptive >= nyquist:
        legs.append(f"{ADAPTIVE} ({adaptive:.3f}x) >= {NYQUIST_STATIC} "
                    f"({nyquist:.3f}x)")
    if not legs:
        return f"{FIXED} > {NYQUIST_STATIC} > {ADAPTIVE}", True
    return "inversion: " + "; ".join(legs), False


def _adaptive_reaction(scenario: Scenario, source: TraceSource,
                       suite: PolicySuite) -> tuple[float | None, float | None,
                                                    float | None, float | None,
                                                    tuple[tuple[float, float], ...]]:
    """Measure the controller's reaction to the scenario's regime shift.

    Runs the adaptive controller over the first transformed trace of
    *every* metric (per-metric behaviour varies a lot: broadband pairs sit
    pinned at the rate ceiling and can never re-probe) and scores the
    :class:`~repro.core.adaptive.ModeTransition` streams against the known
    shift time -- measured, not inferred from nrmse drift.  Each metric's
    controller is the one the survey runs on it: the suite's adaptive
    policy built for that trace's interval, so its initial rate and rate
    ceiling follow the metric's own production rate.

    Returns ``(shift time, mean re-probe latency, mean re-settle latency,
    fraction of measured pairs that re-probed, rate trajectory)``.  The
    latency means run over the pairs that reacted at all; the trajectory
    is the first reacting pair's (or the first pair's, when the scenario
    has no shift, in which case the latencies are ``None``).
    """
    shift: float | None = None
    reprobes: list[float] = []
    resettles: list[float] = []
    measured = 0
    trajectory: tuple[tuple[float, float], ...] = ()
    for metric_name in source.metric_names():
        selected = source.pairs_for_metric(metric_name)
        if not selected:
            continue
        trace = source.load(selected[0])
        adaptive = next(policy for policy in suite.build(trace.interval)
                        if isinstance(policy, AdaptiveDualRatePolicy))
        run = adaptive.run_controller(trace)
        if not trajectory:
            trajectory = tuple((float(t), float(rate))
                               for t, rate in run.sampling_rates())
        shift = scenario.shift_time(trace.duration)
        if shift is None:
            return None, None, None, None, trajectory
        measured += 1
        noticed = reprobe_latency(run.transitions, shift)
        if noticed is None:
            continue
        if len(reprobes) == 0:
            trajectory = tuple((float(t), float(rate))
                               for t, rate in run.sampling_rates())
        reprobes.append(noticed)
        settled = resettle_latency(run.transitions, shift)
        if settled is not None:
            resettles.append(settled)
    if measured == 0:
        raise ValueError("no (metric, device) pairs to measure the adaptive "
                         "reaction on")
    mean_reprobe = sum(reprobes) / len(reprobes) if reprobes else None
    mean_resettle = sum(resettles) / len(resettles) if resettles else None
    return shift, mean_reprobe, mean_resettle, len(reprobes) / measured, trajectory


def evaluate_cell(scenario: Scenario, fabric_name: str, source: TraceSource,
                  accountant: TelemetryCostAccountant, suite: PolicySuite) -> MatrixCell:
    """Survey one (scenario, fabric) cell and derive its verdict.

    ``source`` is the *un-transformed* fabric source; the scenario wraps
    it here so caller code cannot accidentally survey a cell under the
    wrong transform stack.  Raises ``ValueError`` for zero-pair cells.
    """
    if len(source.pairs()) == 0:
        raise ValueError(
            f"cell ({scenario.name} x {fabric_name}) has zero (metric, device) "
            "pairs; an empty cell has no cost-quality ordering to record")
    wrapped = scenario.wrap(source)
    result: PolicySurveyResult = run_policy_survey(wrapped, suite, accountant=accountant)
    relative = result.relative_costs(FIXED)
    verdict, holds = _ordering_verdict(relative)
    rows = {str(row["policy"]): row for row in result.rows()}
    shift, reprobe, resettle, fraction, trajectory = _adaptive_reaction(
        scenario, wrapped, suite)
    return MatrixCell(
        scenario=scenario.name,
        fabric=fabric_name,
        points=int(rows[FIXED]["points"]),
        verdict=verdict,
        holds_paper_ordering=holds,
        relative_costs={name: float(value) for name, value in relative.items()},
        total_costs={name: float(row["total_cost"]) for name, row in rows.items()},
        mean_nrmse={name: float(row["mean_nrmse"]) for name, row in rows.items()},
        worst_nrmse={name: float(row["worst_nrmse"]) for name, row in rows.items()},
        shift_time_s=shift,
        reprobe_latency_s=reprobe,
        resettle_latency_s=resettle,
        reprobe_fraction=fraction,
        adaptive_rate_trajectory=trajectory,
    )


def run_matrix(scenarios: Sequence[Scenario],
               fabrics: Mapping[str, DeploymentSpec], suite: PolicySuite) -> MatrixResult:
    """Run every (scenario, fabric) cell and collect the matrix.

    ``fabrics`` maps a display name to the :class:`DeploymentSpec` whose
    deployment (and hop-priced accountant) the cell runs on.  Cells are
    evaluated in declaration order -- scenarios outer, fabrics inner --
    and the whole run is deterministic because both the survey records
    and the transforms are.  Each cell is one in-process
    ``run_policy_survey`` over every pair of its fabric, in the survey's
    default slices, with no record store.
    """
    cells: list[MatrixCell] = []
    for scenario in scenarios:
        for fabric_name, spec in fabrics.items():
            source = spec.open()
            cells.append(evaluate_cell(scenario, fabric_name, source,
                                       source.accountant(), suite))
    return MatrixResult(cells=tuple(cells))
