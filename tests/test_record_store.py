"""Record-store correctness: hits equal recomputation, misses on any change.

The :class:`~repro.records.RecordStore` contract is byte-equivalence:
a fingerprint hit must serve exactly the blocks a fresh run would
produce, at any worker count, and anything that can change those bytes
-- estimator parameters, trace contents, the slice address -- must
change the fingerprint and force a miss.  Failed (quarantined) slices
must never be cached, because a salvaged block is not the answer a
healthy rerun would give.

These tests drive both fan-outs (``run_survey`` and
``run_policy_survey``) against stores on disk, plus the spill-sink
ordering regression (numeric file ordering past ten blocks).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.policy_survey import run_policy_survey
from repro.analysis.survey import run_survey
from repro.core.nyquist import NyquistEstimator
from repro.faults import FaultInjectingTraceSource, FaultPlan
from repro.pipeline.policies import PolicySuite
from repro.records import (PairFingerprint, RecordStore, SpillingRecordSink,
                           fingerprint_slice, load_rcb_any)
from repro.telemetry.dataset import DatasetConfig, FleetDataset

CONFIG = DatasetConfig(pair_count=56, seed=5)


def block_payloads(blocks) -> list:
    """Every (scalar values, column bytes) of a block stream, in order."""
    payloads = []
    for block in blocks:
        schema = type(block)._SCHEMA
        payloads.append((
            type(block).__name__,
            tuple(getattr(block, spec.name) for spec in schema.scalars),
            tuple(np.asarray(getattr(block, spec.name)).tobytes()
                  for spec in schema.columns),
        ))
    return payloads


@pytest.fixture()
def dataset() -> FleetDataset:
    return FleetDataset(CONFIG)


@pytest.fixture()
def store(tmp_path) -> RecordStore:
    return RecordStore(tmp_path / "store")


# ----------------------------------------------------------------------
class TestRecordStoreDirectory:
    def test_reopening_a_store_is_fine(self, tmp_path):
        RecordStore(tmp_path / "store")
        RecordStore(tmp_path / "store")

    def test_foreign_format_marker_raises(self, tmp_path):
        directory = tmp_path / "store"
        RecordStore(directory)
        (directory / "store.json").write_text('{"format": "something-else/9"}')
        with pytest.raises(ValueError, match="something-else"):
            RecordStore(directory)

    def test_corrupt_marker_raises_naming_path(self, tmp_path):
        directory = tmp_path / "store"
        RecordStore(directory)
        (directory / "store.json").write_text("{not json")
        with pytest.raises(ValueError, match="store.json"):
            RecordStore(directory)

    def test_put_is_idempotent_and_get_round_trips(self, dataset, store):
        result = run_survey(dataset, limit_per_metric=4, chunk_size=4)
        blocks = list(result.iter_blocks())[:1]
        fingerprint = fingerprint_slice("survey", dataset, blocks[0].metric_name,
                                        0, 4, 4, "params")
        assert store.get(fingerprint) is None
        assert fingerprint not in store
        store.put(fingerprint, blocks)
        store.put(fingerprint, blocks)  # second publish is a no-op
        assert fingerprint in store
        loaded = store.get(fingerprint)
        assert block_payloads(loaded) == block_payloads(blocks)
        assert store.rows == len(blocks[0])

    def test_fingerprint_digest_is_stable_and_sensitive(self):
        base = dict(kind="survey", metric_name="Temperature", offset=0, limit=4,
                    chunk_size=4, params_token="p", content_digest="c")
        digest = PairFingerprint(**base).digest
        assert PairFingerprint(**base).digest == digest
        for field, value in [("params_token", "q"), ("content_digest", "d"),
                             ("offset", 4), ("kind", "policy")]:
            assert PairFingerprint(**{**base, field: value}).digest != digest

    def test_unfingerprintable_source_raises(self):
        class Opaque:
            def pairs_for_metric(self, name):
                return []
        with pytest.raises(ValueError, match="pair_content_token"):
            fingerprint_slice("survey", Opaque(), "Temperature", 0, 4, 4, "p")


# ----------------------------------------------------------------------
class TestSurveyStoreEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_run_is_all_hits_and_byte_identical(self, dataset, store,
                                                     workers):
        cold = run_survey(dataset, store=store, chunk_size=4, workers=workers)
        assert (cold.cache_hits, cold.cache_misses) == (0, len(dataset.pairs()))
        warm = run_survey(FleetDataset(CONFIG), store=store, chunk_size=4,
                          workers=workers)
        assert (warm.cache_hits, warm.cache_misses) == (len(dataset.pairs()), 0)
        assert block_payloads(warm.iter_blocks()) == block_payloads(cold.iter_blocks())

    def test_hits_cross_worker_counts(self, dataset, store):
        cold = run_survey(dataset, store=store, chunk_size=4, workers=2)
        warm = run_survey(dataset, store=store, chunk_size=4, workers=1)
        assert warm.cache_misses == 0
        assert block_payloads(warm.iter_blocks()) == block_payloads(cold.iter_blocks())

    def test_store_matches_storeless_run(self, dataset, store):
        plain = run_survey(FleetDataset(CONFIG), chunk_size=4)
        stored = run_survey(dataset, store=store, chunk_size=4)
        rerun = run_survey(dataset, store=store, chunk_size=4)
        assert block_payloads(stored.iter_blocks()) == block_payloads(plain.iter_blocks())
        assert block_payloads(rerun.iter_blocks()) == block_payloads(plain.iter_blocks())

    def test_warm_run_performs_zero_estimator_calls(self, dataset, store,
                                                    monkeypatch):
        run_survey(dataset, store=store, chunk_size=4)

        def explode(*args, **kwargs):
            raise AssertionError("estimator called on a fully cached run")

        monkeypatch.setattr(NyquistEstimator, "estimate_batch", explode)
        monkeypatch.setattr(NyquistEstimator, "estimate", explode)
        warm = run_survey(FleetDataset(CONFIG), store=store, chunk_size=4)
        assert warm.cache_misses == 0
        assert len(warm) == len(dataset.pairs())

    def test_estimator_parameter_change_invalidates(self, dataset, store):
        run_survey(dataset, store=store, chunk_size=4,
                   estimator=NyquistEstimator(energy_fraction=0.99))
        changed = run_survey(dataset, store=store, chunk_size=4,
                             estimator=NyquistEstimator(energy_fraction=0.95))
        assert changed.cache_hits == 0
        assert changed.cache_misses == len(dataset.pairs())

    def test_oversample_threshold_change_invalidates(self, dataset, store):
        run_survey(dataset, store=store, chunk_size=4)
        changed = run_survey(dataset, store=store, chunk_size=4,
                             oversample_threshold=2.0)
        assert changed.cache_hits == 0

    def test_chunk_size_change_invalidates(self, dataset, store):
        run_survey(dataset, store=store, chunk_size=4)
        changed = run_survey(dataset, store=store, chunk_size=8)
        assert changed.cache_hits == 0

    def test_dataset_change_invalidates(self, store):
        run_survey(FleetDataset(CONFIG), store=store, chunk_size=4)
        other = FleetDataset(DatasetConfig(pair_count=56, seed=6))
        changed = run_survey(other, store=store, chunk_size=4)
        assert changed.cache_hits == 0


# ----------------------------------------------------------------------
class TestMeasuredFleetContentInvalidation:
    def test_rewritten_trace_file_invalidates_its_slice(self, tmp_path):
        fleet = FleetDataset(DatasetConfig(pair_count=14, seed=5,
                                           metrics=("Temperature", "Link util")))
        measured = fleet.export(tmp_path / "fleet")
        store = RecordStore(tmp_path / "store")
        cold = run_survey(measured, store=store, chunk_size=4)
        assert cold.cache_misses == 14

        # Re-record one Temperature trace with different contents (another
        # device's trace of the same metric keeps the manifest valid).
        pairs = measured.pairs_for_metric("Temperature")
        victim, donor = pairs[0], pairs[1]
        victim_path = measured.directory / victim.file
        donor_path = measured.directory / donor.file
        assert victim_path.read_bytes() != donor_path.read_bytes()
        victim_path.write_bytes(donor_path.read_bytes())

        warm = run_survey(measured, store=store, chunk_size=4)
        # Only the slice holding the rewritten file misses; everything
        # else is served from the store.
        assert 0 < warm.cache_misses <= 4
        assert warm.cache_hits == 14 - warm.cache_misses
        # And the recomputed records reflect the new trace bytes.
        fresh = run_survey(measured, chunk_size=4)
        assert block_payloads(warm.iter_blocks()) == block_payloads(fresh.iter_blocks())


# ----------------------------------------------------------------------
class TestQuarantinedSlicesNeverCached:
    PLAN = FaultPlan(seed=3, fraction=0.15,
                     kinds=("corrupt-trace", "truncated-trace"))

    @pytest.fixture()
    def chaotic(self, dataset):
        return FaultInjectingTraceSource(dataset, self.PLAN)

    @pytest.fixture()
    def faulty_count(self, dataset):
        return sum(1 for pair in dataset.pairs() if self.PLAN.affects(*pair.key))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_faulty_slices_miss_again_healthy_slices_hit(self, chaotic, store,
                                                         faulty_count, workers):
        assert faulty_count > 0
        cold = run_survey(chaotic, store=store, chunk_size=4,
                          on_error="quarantine", workers=workers)
        assert cold.quarantined_count == faulty_count
        warm = run_survey(chaotic, store=store, chunk_size=4,
                          on_error="quarantine", workers=workers)
        # Quarantined slices were not cached: they recompute (and
        # re-quarantine) on every run, while healthy slices hit.
        assert warm.cache_misses > 0
        assert warm.cache_hits > 0
        assert warm.cache_hits + warm.cache_misses == len(chaotic.pairs())
        assert warm.quarantined_count == faulty_count
        assert block_payloads(warm.iter_blocks()) == block_payloads(cold.iter_blocks())

    def test_no_store_entry_covers_a_faulty_pair(self, chaotic, store, dataset):
        run_survey(chaotic, store=store, chunk_size=4, on_error="quarantine")
        cached_rows = store.rows
        total = len(dataset.pairs())
        faulty = sum(1 for pair in dataset.pairs() if self.PLAN.affects(*pair.key))
        # Every slice containing a faulty pair stayed out of the store,
        # so the cached row count excludes at least the faulty pairs.
        assert cached_rows <= total - faulty


# ----------------------------------------------------------------------
class TestPolicySurveyStore:
    SUITE = PolicySuite(production_oversample=1.0, adaptive_window=2 * 3600.0)
    FLEET = DatasetConfig(pair_count=28, seed=5, trace_duration=21600.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_run_is_all_hits_and_byte_identical(self, tmp_path, workers):
        source = FleetDataset(self.FLEET)
        store = RecordStore(tmp_path / "store")
        cold = run_policy_survey(source, self.SUITE, store=store, chunk_size=8,
                                 workers=workers)
        assert (cold.cache_hits, cold.cache_misses) == (0, 28)
        warm = run_policy_survey(FleetDataset(self.FLEET), self.SUITE,
                                 store=store, chunk_size=8, workers=workers)
        assert (warm.cache_hits, warm.cache_misses) == (28, 0)
        assert block_payloads(warm.iter_blocks()) == block_payloads(cold.iter_blocks())

    def test_suite_parameter_change_invalidates(self, tmp_path):
        source = FleetDataset(self.FLEET)
        store = RecordStore(tmp_path / "store")
        run_policy_survey(source, self.SUITE, store=store, chunk_size=8)
        changed = run_policy_survey(
            source, PolicySuite(production_oversample=1.0,
                                adaptive_window=3 * 3600.0),
            store=store, chunk_size=8)
        assert changed.cache_hits == 0

    def test_accountant_change_invalidates(self, tmp_path):
        from repro.network.cost import TelemetryCostAccountant
        source = FleetDataset(self.FLEET)
        store = RecordStore(tmp_path / "store")
        run_policy_survey(source, self.SUITE, store=store, chunk_size=8)
        changed = run_policy_survey(
            source, self.SUITE, store=store, chunk_size=8,
            accountant=TelemetryCostAccountant(default_hops=7))
        assert changed.cache_hits == 0

    def test_tokenless_suite_is_rejected(self, tmp_path):
        class HomegrownSuite:
            def build(self, interval):
                return []
        source = FleetDataset(self.FLEET)
        store = RecordStore(tmp_path / "store")
        with pytest.raises(ValueError, match="cache_token"):
            run_policy_survey(source, HomegrownSuite(), store=store, chunk_size=8)


    def test_default_suite_store_keys_are_unchanged(self, tmp_path):
        """A store filled by an earlier release serves this suite's slices:
        the digest over every published entry name is pinned."""
        store = RecordStore(tmp_path / "store")
        run_policy_survey(FleetDataset(self.FLEET), self.SUITE, store=store, chunk_size=8)
        assert entry_names_digest(store) == \
            "e2da994f12c92c798369331d0f9a985f289af5dae865dd57cb562a986c6da624"


def entry_names_digest(store: RecordStore) -> str:
    """sha256 over the store's entry names (their fingerprint digests), in order."""
    names = "\n".join(entry.name for entry in store.entries())
    return hashlib.sha256(names.encode("utf-8")).hexdigest()


def test_default_survey_store_keys_are_unchanged(dataset, store):
    """A store filled by an earlier release serves the default survey."""
    run_survey(dataset, store=store, chunk_size=16)
    assert len(list(store.entries())) == 14
    assert entry_names_digest(store) == \
        "ad976e8caa971a1d764bc61c2abeddfe5fa3572f58c0f22affe4916fb3f0bc63"


# ----------------------------------------------------------------------
class TestMultiWorkerFiles:
    """Multi-worker runs leave only their own files."""

    def test_spilling_sink_multiworker_matches_sequential(self, dataset, tmp_path):
        plain = run_survey(FleetDataset(CONFIG), chunk_size=4)
        sink = SpillingRecordSink(tmp_path / "spool")
        pooled = run_survey(dataset, chunk_size=4, workers=2, sink=sink)
        assert block_payloads(pooled.iter_blocks()) == block_payloads(plain.iter_blocks())
        assert sorted((tmp_path / "spool").iterdir()) == sorted(sink.files)

    def test_store_run_leaves_what_a_sequential_run_leaves(self, dataset, tmp_path):
        run_survey(dataset, store=RecordStore(tmp_path / "inline"), chunk_size=4)
        run_survey(dataset, store=RecordStore(tmp_path / "pooled"), chunk_size=4, workers=2)
        inline = {path.name for path in (tmp_path / "inline").iterdir()}
        assert {path.name for path in (tmp_path / "pooled").iterdir()} <= inline


# ----------------------------------------------------------------------
class TestSpillFileOrdering:
    """records-10 must sort after records-9: numeric, not lexicographic."""

    def test_more_than_nine_blocks_keep_append_order(self, dataset, tmp_path):
        sink = SpillingRecordSink(tmp_path / "spool")
        result = run_survey(dataset, chunk_size=4, sink=sink)
        assert len(sink.files) > 10
        reopened = SpillingRecordSink(tmp_path / "spool")
        assert [p.name for p in reopened.files] == [p.name for p in sink.files]
        assert block_payloads(reopened.blocks()) == block_payloads(result.iter_blocks())

    def test_unpadded_indices_sort_numerically(self, tmp_path):
        from repro.analysis.survey import RecordBlock
        directory = tmp_path / "spool"
        directory.mkdir()
        order = []
        for index in range(12):
            block = RecordBlock(
                metric_name=f"metric-{index}",
                device_ids=np.array([f"dev-{index}"], dtype=np.str_),
                current_rate=np.array([1.0]),
                nyquist_rate=np.array([0.1]),
                reduction_ratio=np.array([10.0]),
                category=np.array([0]),
                reliable=np.array([True]),
                true_nyquist_rate=np.array([np.nan]),
                trace_duration=np.array([86400.0]),
            )
            # Legacy writers did not zero-pad the index.
            block.save_rcb(directory / f"records-{index}.rcb")
            order.append(f"metric-{index}")
        sink = SpillingRecordSink(directory)
        assert [block.metric_name for block in sink.blocks()] == order
        # Appending continues past the highest index instead of clobbering.
        extra = RecordBlock(
            metric_name="metric-12",
            device_ids=np.array(["dev-12"], dtype=np.str_),
            current_rate=np.array([1.0]),
            nyquist_rate=np.array([0.1]),
            reduction_ratio=np.array([10.0]),
            category=np.array([0]),
            reliable=np.array([True]),
            true_nyquist_rate=np.array([np.nan]),
            trace_duration=np.array([86400.0]),
        )
        sink.append(extra)
        assert sink.files[-1].name == "records-00012.rcb"
        assert [block.metric_name for block in sink.blocks()] == order + ["metric-12"]


# ----------------------------------------------------------------------
def _lose_first_block(entry) -> None:
    (entry / "block-00000.rcb").unlink()


def _overstate_rows(entry) -> None:
    meta = json.loads((entry / "meta.json").read_text())
    meta["rows"] += 1
    (entry / "meta.json").write_text(json.dumps(meta))


def _garble_metadata(entry) -> None:
    (entry / "meta.json").write_text("{not json")


class TestDamagedEntries:
    """A hit serves exactly the published blocks, or raises naming the entry.

    ``get`` loads the ``meta["blocks"]`` files the entry was published
    with and checks their rows against ``meta["rows"]``; a lost, stray
    or short block must never pass as a complete hit.
    """

    @pytest.fixture()
    def fleet(self) -> FleetDataset:
        return FleetDataset(DatasetConfig(pair_count=40, seed=5))

    @pytest.fixture()
    def populated(self, fleet, store):
        cold = run_survey(fleet, store=store, chunk_size=4)
        return store, block_payloads(cold.iter_blocks())

    @pytest.mark.parametrize("damage, reason", [
        (_lose_first_block, "No such file"),
        (_overstate_rows, "metadata declares"),
        (_garble_metadata, "unreadable metadata"),
    ], ids=["lost-block", "row-count", "garbled-meta"])
    def test_damage_raises_naming_the_entry(self, fleet, populated, damage, reason):
        store, _ = populated
        entry = next(iter(store.entries()))
        damage(entry)
        with pytest.raises(ValueError, match=reason) as raised:
            run_survey(fleet, store=store, chunk_size=4)
        assert str(entry) in str(raised.value)
        assert "repro-monitor store verify" in str(raised.value)

    def test_stray_block_file_is_not_served(self, fleet, populated):
        store, cold_payloads = populated
        entry = next(iter(store.entries()))
        shutil.copy(entry / "block-00000.rcb", entry / "block-00009.rcb")
        warm = run_survey(fleet, store=store, chunk_size=4)
        assert (warm.cache_hits, warm.cache_misses) == (40, 0)
        assert block_payloads(warm.iter_blocks()) == cold_payloads


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                    reason="needs /proc to count open descriptors")
def test_served_blocks_hold_no_file_descriptors(tmp_path):
    """Loaded store blocks keep no descriptor open, however many are alive."""
    store = RecordStore(tmp_path / "store")
    run_survey(FleetDataset(DatasetConfig(pair_count=400, seed=7)), store=store,
               chunk_size=4)
    paths = [path for entry in store.entries() for path in sorted(entry.glob("block-*.rcb"))]
    assert len(paths) >= 100
    before = _open_descriptors()
    blocks = [load_rcb_any(path) for path in paths]
    assert _open_descriptors() == before
    warm = run_survey(FleetDataset(DatasetConfig(pair_count=400, seed=7)), store=store,
                      chunk_size=4)
    assert (warm.cache_hits, warm.cache_misses) == (400, 0)
    assert _open_descriptors() == before
    assert sum(len(block) for block in blocks) == len(warm) == 400


# ----------------------------------------------------------------------
class TestStoreVerify:
    """``store.verify()`` / ``repro-monitor store verify``: the bit-rot audit.

    Every ``put`` records a sha256 per published block file; verify
    re-hashes the lot and reports anything the disk changed since
    publication.  Entries from before digests were recorded are
    reported as unverified, not as failures.
    """

    @pytest.fixture()
    def populated(self, dataset, store):
        run_survey(dataset, store=store, chunk_size=4)
        return store

    def test_clean_store_verifies_ok(self, populated):
        report = populated.verify()
        assert report.ok
        assert report.entries > 0 and report.blocks >= report.entries
        assert report.problems == () and report.unverified == ()

    def test_bit_flip_is_reported_with_the_block_path(self, populated):
        victim = next(next(iter(populated.entries())).glob("block-*.rcb"))
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        report = populated.verify()
        assert not report.ok
        assert len(report.problems) == 1
        assert str(victim) in report.problems[0]
        assert "bit rot" in report.problems[0]

    def test_missing_block_file_is_a_count_mismatch(self, populated):
        entry = next(iter(populated.entries()))
        next(entry.glob("block-*.rcb")).unlink()
        report = populated.verify()
        assert not report.ok
        assert any("declares" in problem and str(entry) in problem
                   for problem in report.problems)

    def test_predigest_entries_are_unverified_not_failed(self, populated):
        import json as _json
        entry = next(iter(populated.entries()))
        meta_path = entry / "meta.json"
        meta = _json.loads(meta_path.read_text())
        del meta["block_digests"]
        meta_path.write_text(_json.dumps(meta))
        report = populated.verify()
        assert report.ok  # legacy entries are a warning, not bit rot
        assert len(report.unverified) == 1
        assert str(entry) in report.unverified[0]

    def test_cli_store_verify_round_trip(self, populated, capsys):
        from repro.cli import main
        assert main(["store", "verify", str(populated.directory)]) == 0
        out = capsys.readouterr().out
        assert "match their recorded digests" in out
        victim = next(next(iter(populated.entries())).glob("block-*.rcb"))
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert main(["store", "verify", str(populated.directory)]) == 1
        captured = capsys.readouterr()
        assert "BIT ROT" in captured.err

    def test_cli_store_verify_rejects_non_store(self, tmp_path, capsys):
        from repro.cli import main
        (tmp_path / "not-a-store").mkdir()
        (tmp_path / "not-a-store" / "store.json").write_text("{}")
        assert main(["store", "verify", str(tmp_path / "not-a-store")]) == 1
        assert capsys.readouterr().err
