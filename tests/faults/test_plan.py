"""Unit tests for :mod:`repro.faults.plan` (seeded fault assignment)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.faults import DATA_FAULT_KINDS, FAULT_KINDS, FaultPlan

PAIRS = [(metric, f"dev-{index:03d}")
         for metric in ("Link util", "Temperature", "CPU")
         for index in range(60)]


class TestAssignment:
    def test_assignment_is_a_pure_function_of_the_plan(self):
        left = FaultPlan(seed=7, fraction=0.1, kinds=FAULT_KINDS[:2])
        right = FaultPlan(seed=7, fraction=0.1, kinds=FAULT_KINDS[:2])
        assert ([left.kind_for(m, d) for m, d in PAIRS]
                == [right.kind_for(m, d) for m, d in PAIRS])

    def test_different_seeds_shuffle_the_fault_list(self):
        a = FaultPlan(seed=1, fraction=0.2)
        b = FaultPlan(seed=2, fraction=0.2)
        assert ([a.kind_for(m, d) for m, d in PAIRS]
                != [b.kind_for(m, d) for m, d in PAIRS])

    def test_fraction_bounds_coverage(self):
        none = FaultPlan(seed=3, fraction=0.0)
        assert not any(none.affects(m, d) for m, d in PAIRS)
        everyone = FaultPlan(seed=3, fraction=1.0, kinds=DATA_FAULT_KINDS)
        assert all(everyone.affects(m, d) for m, d in PAIRS)

    def test_fraction_is_roughly_honoured(self):
        plan = FaultPlan(seed=11, fraction=0.25, kinds=DATA_FAULT_KINDS)
        hit = sum(plan.affects(m, d) for m, d in PAIRS)
        assert 0.10 * len(PAIRS) <= hit <= 0.45 * len(PAIRS)

    def test_kinds_are_drawn_from_the_plan(self):
        plan = FaultPlan(seed=5, fraction=0.5, kinds=("blackout", "counter-wrap"))
        drawn = {plan.kind_for(m, d) for m, d in PAIRS} - {None}
        assert drawn == {"blackout", "counter-wrap"}

    def test_pickle_round_trip_preserves_assignment(self):
        plan = FaultPlan(seed=9, fraction=0.15, kinds=FAULT_KINDS[:2])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert ([plan.kind_for(m, d) for m, d in PAIRS]
                == [clone.kind_for(m, d) for m, d in PAIRS])

    def test_assignment_survives_process_hash_randomisation(self):
        """The digest must not lean on builtin hash(): check in a child
        process running under a different PYTHONHASHSEED."""
        kinds = ("corrupt-trace", "truncated-trace", "blackout")
        plan = FaultPlan(seed=21, fraction=0.3, kinds=kinds)
        expected = [repr(plan.kind_for(m, d)) for m, d in PAIRS[:20]]
        script = (
            "from repro.faults import FaultPlan\n"
            f"plan = FaultPlan(seed=21, fraction=0.3, kinds={kinds!r})\n"
            f"pairs = {PAIRS[:20]!r}\n"
            "print(';'.join(repr(plan.kind_for(m, d)) for m, d in pairs))\n")
        env = dict(os.environ, PYTHONHASHSEED="424242",
                   PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().split(";") == expected

    def test_rng_for_is_deterministic_per_pair(self):
        plan = FaultPlan(seed=4)
        a = plan.rng_for("Link util", "dev-1").integers(0, 10 ** 9, size=8)
        b = plan.rng_for("Link util", "dev-1").integers(0, 10 ** 9, size=8)
        c = plan.rng_for("Link util", "dev-2").integers(0, 10 ** 9, size=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_corrupts_every_nth_line(self):
        plan = FaultPlan(malformed_line_every=10)
        mangled = [n for n in range(1, 51) if plan.corrupts_line(n)]
        assert mangled == [10, 20, 30, 40, 50]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"fraction": -0.1},
        {"fraction": 1.5},
        {"kinds": ("corrupt-trace", "martian-attack")},
        {"io_error_opens": 0},
        {"malformed_line_every": 1},
        {"kinds": ("io-error",)},                 # needs state_dir
        {"crash_slices": (("Link util", 0),)},    # needs state_dir
    ])
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_stateful_kinds_accept_a_state_dir(self, tmp_path):
        FaultPlan(kinds=("io-error",), state_dir=str(tmp_path))
        FaultPlan(crash_slices=(("Link util", 0),), state_dir=str(tmp_path))


class TestOnceOnlyState:
    def test_io_error_budget_counts_opens(self, tmp_path):
        plan = FaultPlan(kinds=("io-error",), io_error_opens=2,
                         state_dir=str(tmp_path))
        flips = [plan.consume_io_error("Link util", "dev-1") for _ in range(4)]
        assert flips == [True, True, False, False]

    def test_io_error_state_is_shared_across_plan_instances(self, tmp_path):
        """Marker files, not in-memory counters: a re-created plan (the
        pickled copy a pool worker opens) sees the opens already spent."""
        first = FaultPlan(kinds=("io-error",), io_error_opens=1,
                          state_dir=str(tmp_path))
        assert first.consume_io_error("Link util", "dev-1")
        clone = pickle.loads(pickle.dumps(first))
        assert not clone.consume_io_error("Link util", "dev-1")

    def test_io_error_budgets_are_per_pair(self, tmp_path):
        plan = FaultPlan(kinds=("io-error",), io_error_opens=1,
                         state_dir=str(tmp_path))
        assert plan.consume_io_error("Link util", "dev-1")
        assert plan.consume_io_error("Link util", "dev-2")
        assert not plan.consume_io_error("Link util", "dev-1")

    def test_crash_fires_exactly_once_per_slice(self, tmp_path):
        plan = FaultPlan(crash_slices=(("Link util", 0), ("Link util", 8)),
                         state_dir=str(tmp_path))
        assert plan.consume_crash("Link util", 0)
        assert not plan.consume_crash("Link util", 0)
        assert plan.consume_crash("Link util", 8)

    def test_stateful_calls_without_state_dir_are_errors(self):
        plan = FaultPlan()
        with pytest.raises(ValueError, match="state_dir"):
            plan.consume_io_error("Link util", "dev-1")
        with pytest.raises(ValueError, match="state_dir"):
            plan.consume_crash("Link util", 0)
