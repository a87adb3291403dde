"""Unit tests for :mod:`repro.faults.inject` (applying a fault plan)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from disk_faults import faulty_export
from fleets import ReshapedFleet
from repro.faults import (FaultInjectingSourceSpec, FaultInjectingTraceSource,
                          FaultPlan, corrupt_dump_lines)
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.ingest import export_gnmi_dump, export_snmp_dump
from repro.telemetry.measured import MeasuredFleetDataset


@pytest.fixture(scope="module")
def fleet():
    return FleetDataset(DatasetConfig(pair_count=28, seed=5))


def pair_named(source, kind, plan):
    """First pair of ``source`` the plan assigns ``kind`` (skip-if-none)."""
    for pair in source.pairs():
        metric_name, device_id = pair.key
        if plan.kind_for(metric_name, device_id) == kind:
            return pair
    pytest.skip(f"seeded plan assigned no {kind!r} pair in this fleet")


class TestFaultInjectingTraceSource:
    def test_healthy_pairs_pass_through_untouched(self, fleet):
        plan = FaultPlan(seed=1, fraction=0.2, kinds=("corrupt-trace",))
        chaotic = FaultInjectingTraceSource(fleet, plan)
        for pair in fleet.pairs():
            if plan.affects(*pair.key):
                continue
            assert np.array_equal(chaotic.load(pair).values,
                                  fleet.load(pair).values)

    def test_shape_metadata_is_delegated(self, fleet):
        chaotic = FaultInjectingTraceSource(fleet, FaultPlan(seed=1))
        assert chaotic.metric_names() == fleet.metric_names()
        assert len(chaotic.pairs()) == len(fleet.pairs())
        assert chaotic.trace_duration == fleet.trace_duration

    @pytest.mark.parametrize("kind", ["corrupt-trace", "truncated-trace"])
    def test_file_faults_raise_value_error(self, fleet, kind):
        plan = FaultPlan(seed=2, fraction=0.3, kinds=(kind,))
        chaotic = FaultInjectingTraceSource(fleet, plan)
        pair = pair_named(fleet, kind, plan)
        with pytest.raises(ValueError, match="corrupt or truncated trace file"):
            chaotic.load(pair)

    def test_io_error_recovers_after_the_budget(self, fleet, tmp_path):
        plan = FaultPlan(seed=3, fraction=0.3, kinds=("io-error",),
                         io_error_opens=1, state_dir=str(tmp_path))
        chaotic = FaultInjectingTraceSource(fleet, plan)
        pair = pair_named(fleet, "io-error", plan)
        with pytest.raises(OSError, match="injected transient IO error"):
            chaotic.load(pair)
        assert np.array_equal(chaotic.load(pair).values,
                              fleet.load(pair).values)

    @pytest.mark.parametrize("kind", ["counter-wrap", "device-reboot", "blackout"])
    def test_data_faults_distort_without_breaking_shape(self, fleet, kind):
        plan = FaultPlan(seed=4, fraction=0.4, kinds=(kind,))
        chaotic = FaultInjectingTraceSource(fleet, plan)
        pair = pair_named(fleet, kind, plan)
        clean, dirty = fleet.load(pair), chaotic.load(pair)
        assert dirty.values.shape == clean.values.shape
        assert dirty.interval == clean.interval
        assert not np.array_equal(dirty.values, clean.values)
        again = chaotic.load(pair)
        assert np.array_equal(dirty.values, again.values)

    def test_worker_spec_round_trips_the_chaos(self, fleet, tmp_path):
        exported = faulty_export(fleet, tmp_path / "fleet", FaultPlan(fraction=0.0))
        assert isinstance(exported, MeasuredFleetDataset)
        plan = FaultPlan(seed=5, fraction=0.3, kinds=("corrupt-trace",))
        chaotic = FaultInjectingTraceSource(exported, plan)
        spec = pickle.loads(pickle.dumps(chaotic.worker_spec()))
        assert isinstance(spec, FaultInjectingSourceSpec)
        reopened = spec.open()
        pair = pair_named(reopened, "corrupt-trace", plan)
        with pytest.raises(ValueError, match="corrupt or truncated"):
            reopened.load(pair)

    def test_crash_slices_never_fire_in_the_parent(self, fleet, tmp_path):
        metric = fleet.metric_names()[0]
        plan = FaultPlan(seed=6, fraction=0.0, crash_slices=((metric, 0),),
                         state_dir=str(tmp_path))
        chaotic = FaultInjectingTraceSource(fleet, plan)
        batches = list(chaotic.trace_batches(metric, chunk_size=4))
        assert batches  # still alive: os._exit is pool-worker-only
        assert not any(tmp_path.iterdir())  # crash budget untouched


class TestFaultyExport:
    def test_damaged_files_fail_loudly_healthy_files_bit_identical(
            self, fleet, tmp_path):
        plan = FaultPlan(seed=7, fraction=0.3,
                         kinds=("corrupt-trace", "truncated-trace"))
        dataset = faulty_export(fleet, tmp_path / "fleet", plan)
        damaged = healthy = 0
        for pair in dataset.pairs():
            if plan.kind_for(pair.metric_name, pair.device.device_id):
                damaged += 1
                with pytest.raises(ValueError):
                    dataset.load(pair)
            else:
                healthy += 1
                twin = next(p for p in fleet.pairs()
                            if p.key == (pair.metric_name, pair.device.device_id))
                assert np.array_equal(dataset.load(pair).values,
                                      fleet.load(twin).values)
        assert damaged > 0 and healthy > 0

    def test_zero_fraction_export_is_clean(self, fleet, tmp_path):
        dataset = faulty_export(fleet, tmp_path / "fleet", FaultPlan(fraction=0.0))
        for pair in dataset.pairs():
            dataset.load(pair)  # nothing raises


class TestCorruptDumpLines:
    @pytest.mark.parametrize("exporter", [export_gnmi_dump, export_snmp_dump])
    def test_mangles_every_nth_line_and_reports_them(
            self, fleet, tmp_path, exporter):
        clean = tmp_path / "clean.dump"
        dirty = tmp_path / "dirty.dump"
        exporter(ReshapedFleet(fleet.config, metrics=tuple(fleet.metric_names()[:2])), clean)
        plan = FaultPlan(malformed_line_every=37)
        mangled = corrupt_dump_lines(clean, dirty, plan)
        assert mangled
        assert mangled == [n for n in mangled if n % 37 == 0]
        clean_lines = clean.read_text().splitlines()
        dirty_lines = dirty.read_text().splitlines()
        assert len(clean_lines) == len(dirty_lines)
        for number, (a, b) in enumerate(zip(clean_lines, dirty_lines), start=1):
            if number in mangled:
                assert b.startswith("!corrupted! ")
                assert number > 1  # header / first line never touched
            else:
                assert a == b
