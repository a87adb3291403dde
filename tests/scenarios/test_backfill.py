"""Late backfill at ingest: blackout-window arrival order must not matter."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from backfill_dump import export_backfill_dump
from repro.network.monitoring import DeploymentSpec
from repro.network.topology import TopologySpec
from repro.scenarios import BlackoutWindow
from repro.telemetry.ingest import export_gnmi_dump, ingest_dump


@pytest.fixture(scope="module")
def source():
    spec = DeploymentSpec(
        topology=TopologySpec(num_spines=1, num_leaves=2, servers_per_leaf=1),
        trace_duration=2 * 3600.0, seed=23, oversample_factor=2.0)
    return spec.open()


def shuffled_dump(src: Path, dst: Path, seed: int) -> Path:
    """Copy a JSON-lines dump with its lines in a seeded random order.

    The adversarial arrival order for ingest-invariance tests: same
    update set, no order guarantee at all.
    """
    lines = src.read_text().splitlines(keepends=True)
    permutation = np.random.default_rng(seed).permutation(len(lines))
    with dst.open("w") as handle:
        for index in permutation:
            handle.write(lines[int(index)])
    return dst


def assert_same_fleet(a, b) -> None:
    """Two ingested directories hold identical fleets (traces bit for bit)."""
    manifest_a = json.loads((a.directory / "manifest.json").read_text())
    manifest_b = json.loads((b.directory / "manifest.json").read_text())
    for manifest in (manifest_a, manifest_b):
        manifest.pop("ingest", None)
        for entry in manifest["pairs"]:
            entry.pop("ingest", None)
    assert manifest_a == manifest_b
    for pair_a, pair_b in zip(a.pairs(), b.pairs()):
        trace_a, trace_b = a.load(pair_a), b.load(pair_b)
        assert trace_a.interval == trace_b.interval
        assert np.array_equal(trace_a.values, trace_b.values)


class TestBackfillDump:
    def test_defers_exactly_the_blackout_window(self, source, tmp_path):
        blackout = BlackoutWindow(start_fraction=0.5, duration_fraction=0.25)
        path, deferred = export_backfill_dump(source, tmp_path / "late.jsonl",
                                              blackout)
        total = sum(1 for _ in path.open())
        assert 0 < deferred < total
        # The deferred share tracks the window's duration fraction.
        assert deferred / total == pytest.approx(0.25, abs=0.05)
        # The late suffix really is out of order: the dump's timestamps
        # drop when the buffered window drains at the end.
        stamps = [json.loads(line)["timestamp"] for line in path.open()]
        assert stamps != sorted(stamps)
        assert stamps[-deferred:] == sorted(stamps[-deferred:])

    def test_same_update_set_as_in_order_export(self, source, tmp_path):
        blackout = BlackoutWindow(start_fraction=0.4, duration_fraction=0.2)
        in_order = export_gnmi_dump(source, tmp_path / "clean.jsonl")
        late, _ = export_backfill_dump(source, tmp_path / "late.jsonl", blackout)
        assert sorted(in_order.read_text().splitlines()) \
            == sorted(late.read_text().splitlines())

    def test_late_backfill_ingests_identically(self, source, tmp_path):
        """The importer's set-determinism absorbs the partition: in-order
        and late-backfill dumps build byte-identical fleets."""
        blackout = BlackoutWindow(start_fraction=0.5, duration_fraction=0.15)
        in_order = export_gnmi_dump(source, tmp_path / "clean.jsonl")
        late, _ = export_backfill_dump(source, tmp_path / "late.jsonl", blackout)
        clean = ingest_dump(in_order, tmp_path / "clean-fleet")
        backfilled = ingest_dump(late, tmp_path / "late-fleet",
                                 memory_budget_samples=128)
        assert_same_fleet(clean, backfilled)


class TestShuffleInvariance:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_any_arrival_order_ingests_identically(self, source, tmp_path, seed):
        """Ingesting an arbitrarily shuffled late-backfill dump reproduces
        the in-order fleet -- arrival order carries no information."""
        blackout = BlackoutWindow(start_fraction=0.3, duration_fraction=0.2)
        workdir = tmp_path / f"seed-{seed}"
        workdir.mkdir()
        in_order = export_gnmi_dump(source, workdir / "clean.jsonl")
        late, _ = export_backfill_dump(source, workdir / "late.jsonl", blackout)
        shuffled = shuffled_dump(late, workdir / "shuffled.jsonl", seed)
        clean = ingest_dump(in_order, workdir / "clean-fleet")
        chaotic = ingest_dump(shuffled, workdir / "shuffled-fleet",
                              memory_budget_samples=96)
        assert_same_fleet(clean, chaotic)

    def test_shuffled_dump_is_a_permutation(self, source, tmp_path):
        in_order = export_gnmi_dump(source, tmp_path / "clean.jsonl")
        shuffled = shuffled_dump(in_order, tmp_path / "shuffled.jsonl", seed=7)
        assert sorted(in_order.read_text().splitlines()) \
            == sorted(shuffled.read_text().splitlines())
        assert in_order.read_text() != shuffled.read_text()
