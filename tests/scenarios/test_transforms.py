"""Property tests for the scenario transforms: pure, seeded, shape-preserving."""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, stable_digest
from repro.scenarios import (BlackoutWindow, CounterPathology, DiurnalCycle,
                             FlappingRegime, RegimeShift, Scenario, apply_transforms)
from repro.signals.distortions import apply_data_fault

FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

PAIRS = [("Link util", f"leaf-{i}") for i in range(4)] + \
        [("Temperature", f"spine-{i}") for i in range(4)]

finite_traces = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=200).map(lambda values: np.asarray(values, dtype=np.float64))

intervals = st.floats(min_value=1.0, max_value=600.0, allow_nan=False,
                      allow_infinity=False)

transform_instances = st.one_of(
    st.builds(DiurnalCycle,
              period=st.floats(min_value=600.0, max_value=86400.0),
              amplitude=st.floats(min_value=0.0, max_value=0.9)),
    st.builds(RegimeShift,
              shift_fraction=st.floats(min_value=0.05, max_value=0.95),
              frequency_fraction=st.floats(min_value=0.1, max_value=1.0),
              amplitude=st.floats(min_value=0.1, max_value=5.0)),
    st.builds(FlappingRegime,
              onset_fraction=st.floats(min_value=0.05, max_value=0.95),
              period=st.floats(min_value=600.0, max_value=8 * 3600.0),
              duty=st.floats(min_value=0.1, max_value=0.9),
              frequency_fraction=st.floats(min_value=0.1, max_value=1.0),
              amplitude=st.floats(min_value=0.1, max_value=5.0)),
    st.just(CounterPathology()),
    st.builds(BlackoutWindow,
              start_fraction=st.floats(min_value=0.0, max_value=0.5),
              duration_fraction=st.floats(min_value=0.05, max_value=0.5)),
)


class TestTransformProperties:
    @FAST
    @given(transform=transform_instances, values=finite_traces, interval=intervals)
    def test_pure_shape_preserving_and_deterministic(self, transform, values, interval):
        """Same inputs -> same output; input untouched; geometry preserved."""
        before = values.copy()
        a = transform.apply(values, interval, "Link util", "leaf-0")
        b = transform.apply(values, interval, "Link util", "leaf-0")
        assert np.array_equal(values, before), "transform mutated its input"
        assert a.shape == values.shape
        assert np.array_equal(a, b)

    @FAST
    @given(transform=transform_instances, values=finite_traces, interval=intervals)
    def test_pickle_round_trip_preserves_output(self, transform, values, interval):
        """A worker re-opening the spec must regenerate identical traces."""
        clone = pickle.loads(pickle.dumps(transform))
        assert clone == transform
        assert np.array_equal(transform.apply(values, interval, "FCS errors", "sw-1"),
                              clone.apply(values, interval, "FCS errors", "sw-1"))

    @FAST
    @given(values=finite_traces, interval=intervals)
    def test_phase_varies_per_pair(self, values, interval):
        """Digest seeding keys on (metric, device): pairs get distinct phases."""
        cycle = DiurnalCycle(period=3600.0, amplitude=0.5)
        phases = {
            float(np.sum(cycle.apply(np.ones_like(values), interval, metric, device)))
            for metric, device in PAIRS}
        assert len(phases) > 1

    def test_apply_transforms_rejects_shape_changes(self):
        class Truncating(DiurnalCycle):
            def apply(self, values, interval, metric_name, device_id):
                return values[:-1]

        with pytest.raises(ValueError, match="changed the trace shape"):
            apply_transforms([Truncating()], np.ones(8), 1.0, "Link util", "leaf-0")


class TestHashSeedIndependence:
    def test_transforms_survive_process_hash_randomisation(self):
        """Scenario output must not lean on builtin hash(): regenerate the
        same transformed traces in a child process running under a
        different PYTHONHASHSEED."""
        transforms = (DiurnalCycle(period=3600.0, amplitude=0.4),
                      RegimeShift(shift_fraction=0.5, frequency_fraction=0.8,
                                  amplitude=2.0),
                      CounterPathology())
        values = np.linspace(0.0, 50.0, 64)
        expected = [
            repr(apply_transforms(transforms, values, 30.0, metric, device).sum())
            for metric, device in PAIRS]
        script = (
            "import numpy as np\n"
            "from repro.scenarios import (DiurnalCycle, RegimeShift, CounterPathology,\n"
            "                             apply_transforms)\n"
            "transforms = (DiurnalCycle(period=3600.0, amplitude=0.4),\n"
            "              RegimeShift(shift_fraction=0.5, frequency_fraction=0.8,\n"
            "                          amplitude=2.0),\n"
            "              CounterPathology())\n"
            "values = np.linspace(0.0, 50.0, 64)\n"
            f"pairs = {PAIRS!r}\n"
            "print(';'.join(repr(apply_transforms(transforms, values, 30.0, m, d).sum())\n"
            "               for m, d in pairs))\n")
        env = dict(os.environ, PYTHONHASHSEED="424242",
                   PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().split(";") == expected


#: Pairs enough for both pathology kinds and healthy pairs to show up.
MANY_PAIRS = PAIRS + [(metric, f"tor-{i:04d}") for metric in ("CPU", "FCS errors")
                      for i in range(24)]


class TestCounterPathologyPromotion:
    def test_assignment_rule_matches_fault_plan(self):
        """The promoted pathology keeps FaultPlan's digest assignment rule:
        half the pairs, a counter wrap or a reboot, seeded by 0."""
        plan = FaultPlan(seed=0, fraction=0.5, kinds=("counter-wrap", "device-reboot"))
        assignment = [CounterPathology().kind_for(m, d) for m, d in MANY_PAIRS]
        assert assignment == [plan.kind_for(m, d) for m, d in MANY_PAIRS]
        assert {None, "counter-wrap", "device-reboot"} == set(assignment)

    @pytest.mark.parametrize("kinds", [("counter-wrap",), ("counter-wrap", "device-reboot"),
                                       ("device-reboot", "blackout", "counter-wrap")])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 13, 2 ** 40])
    def test_plan_assignment_follows_the_digest_rule(self, seed, fraction, kinds):
        """A plan draws a pair's kind and placement generator by the digest rule."""
        plan = FaultPlan(seed=seed, fraction=fraction, kinds=kinds)
        for metric, device in MANY_PAIRS:
            position = stable_digest(seed, "pair", metric, device) / 2.0 ** 64
            expected = (None if position >= fraction else
                        kinds[min(int(position / fraction * len(kinds)), len(kinds) - 1)])
            assert plan.kind_for(metric, device) == expected, (metric, device)
            draw = np.random.default_rng(stable_digest(seed, "rng", metric, device)).random(3)
            assert np.array_equal(plan.rng_for(metric, device).random(3), draw)
        touched = [(metric, device) for metric, device in MANY_PAIRS
                   if plan.kind_for(metric, device) is not None]
        assert bool(touched) == (fraction > 0)

    def test_distortion_matches_canonical_placement(self):
        """Afflicted pairs suffer exactly apply_data_fault's seeded placement
        over 15 % of the trace; healthy pairs pass through unchanged."""
        pathology = CounterPathology()
        values = np.cumsum(np.ones(100))
        for metric, device in MANY_PAIRS:
            kind = pathology.kind_for(metric, device)
            if kind is None:
                expected = values
            else:
                rng = np.random.default_rng(stable_digest(0, "rng", metric, device))
                expected = apply_data_fault(kind, values, rng, window_fraction=0.15)
            assert np.array_equal(
                pathology.apply(values, 1.0, metric, device), expected)


class TestValidation:
    @pytest.mark.parametrize("factory", [
        lambda: DiurnalCycle(period=0.0),
        lambda: DiurnalCycle(amplitude=1.0),
        lambda: RegimeShift(shift_fraction=0.0),
        lambda: RegimeShift(shift_fraction=1.0),
        lambda: RegimeShift(frequency_fraction=0.0),
        lambda: RegimeShift(amplitude=0.0),
        lambda: FlappingRegime(onset_fraction=0.0),
        lambda: FlappingRegime(period=0.0),
        lambda: FlappingRegime(duty=1.0),
        lambda: BlackoutWindow(start_fraction=1.0),
        lambda: BlackoutWindow(duration_fraction=0.0),
        lambda: BlackoutWindow(start_fraction=0.9, duration_fraction=0.2),
        lambda: Scenario(""),
    ])
    def test_bad_parameters_raise(self, factory):
        with pytest.raises(ValueError):
            factory()

    @pytest.mark.parametrize("transform, field", [
        (DiurnalCycle, "period"),
        (DiurnalCycle, "amplitude"),
        (RegimeShift, "shift_fraction"),
        (RegimeShift, "frequency_fraction"),
        (RegimeShift, "amplitude"),
        (FlappingRegime, "onset_fraction"),
        (FlappingRegime, "period"),
        (FlappingRegime, "duty"),
        (FlappingRegime, "frequency_fraction"),
        (FlappingRegime, "amplitude"),
        (BlackoutWindow, "start_fraction"),
        (BlackoutWindow, "duration_fraction"),
    ])
    def test_non_finite_parameters_raise_naming_the_field(self, transform, field):
        """NaN or inf would make every transformed trace NaN or inf, or (a
        NaN flap period) silently remove every flap."""
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=field):
                transform(**{field: value})

    def test_regime_shift_at_exact_nyquist_is_phase_degenerate(self):
        """Document why the presets put tones at 0.8 of Nyquist, not 1.0:
        a sine sampled exactly at Nyquist collapses to (-1)^k sin(phase),
        so an unlucky phase erases the incident entirely."""
        values = np.zeros(128)
        shift = RegimeShift(shift_fraction=0.25, frequency_fraction=1.0, amplitude=2.0)
        out = shift.apply(values, 1.0, "Link util", "leaf-0")
        tail = out[64:]
        # At exact Nyquist every sample has the same magnitude |sin(phase)|.
        assert np.allclose(np.abs(tail), np.abs(tail[0]))


class TestScenario:
    def test_shift_time_scans_for_the_first_shifted_transform(self):
        incident = Scenario("incident", (DiurnalCycle(), RegimeShift(shift_fraction=0.5)))
        churn = Scenario("churn", (FlappingRegime(onset_fraction=0.25),))
        calm = Scenario("calm", (DiurnalCycle(),))
        assert incident.shift_time(1000.0) == pytest.approx(500.0)
        assert churn.shift_time(1000.0) == pytest.approx(250.0)
        assert calm.shift_time(1000.0) is None
