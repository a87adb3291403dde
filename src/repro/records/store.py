"""Content-addressed persistent record store for incremental reruns.

A :class:`RecordStore` is a directory of published survey results keyed
by :class:`PairFingerprint` -- a sha256 digest over everything that can
change a record slice's bytes: the code schema version, which fan-out
produced it (survey vs policy survey), the slice address (metric, offset,
limit, chunk size), the estimator/policy/accountant parameters, and one
*content token* per pair (trace-file bytes for measured fleets, the
generative spec identity for synthetic ones).  Two runs that agree on the
fingerprint are guaranteed byte-identical record blocks, so
``run_survey(..., store=...)`` serves hits straight from the store's
``.rcb`` blocks (one read per file, no descriptor kept open) and
recomputes only the misses.

Entries are published atomically: blocks and metadata are staged in a
scratch directory next to the entry and renamed into place in one
``os.rename``, so concurrent writers race benignly (the loser discards
its staging copy) and readers never observe a half-written entry.
Quarantined slices are never handed to :meth:`RecordStore.put` -- a
salvaged block is not the byte-identical answer a healthy rerun would
produce, so caching it would launder the failure into future runs.

Everything in this module derives cache identity from hashed content
only: no ``id()``, no wall-clock, and every directory listing is wrapped
in ``sorted(...)`` (the repro-lint RL008 contract).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from .rcb import load_rcb_any

__all__ = ["STORE_SCHEMA_VERSION", "PairFingerprint", "RecordStore",
           "StoreVerification", "fingerprint_slice"]

#: Version of the record *semantics* baked into every fingerprint.  Bump
#: it whenever a block schema, estimator default or classification rule
#: changes meaning, and every pre-existing store entry silently becomes
#: a miss instead of serving stale bytes.
STORE_SCHEMA_VERSION = "records/1"

#: Format tag of the store directory layout itself.
_STORE_FORMAT = "repro-record-store/1"


@dataclass(frozen=True)
class PairFingerprint:
    """Identity of one record slice: what produced it, from what inputs.

    ``params_token`` is the canonical string of the estimator (or policy
    suite + cost accountant) parameters; ``content_digest`` is a sha256
    over the ordered per-pair content tokens of the slice (see
    ``BaseTraceSource.pair_content_token``).  The slice address is part
    of the key because records are cached at ``batch_offsets``
    granularity -- the unit both fan-outs already compute and spill.
    """

    kind: str
    metric_name: str
    offset: int
    limit: int
    chunk_size: int
    params_token: str
    content_digest: str
    schema_version: str = STORE_SCHEMA_VERSION

    @property
    def digest(self) -> str:
        """The sha256 hex key this fingerprint addresses in a store."""
        payload = "\n".join((
            self.schema_version, self.kind, self.metric_name,
            str(self.offset), str(self.limit), str(self.chunk_size),
            self.params_token, self.content_digest))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_slice(kind: str, source: Any, metric_name: str, offset: int,
                      limit: int, chunk_size: int, params_token: str,
                      ) -> PairFingerprint:
    """Fingerprint one (metric, offset, limit) slice of ``source``.

    Raises ``ValueError`` for sources that cannot vouch for their
    content (anything not implementing ``pair_content_token``), because a
    cache keyed on an unstable identity would serve wrong answers.
    """
    token_of = getattr(source, "pair_content_token", None)
    if token_of is None:
        raise ValueError(
            f"{type(source).__name__} does not implement pair_content_token(); "
            "it cannot be fingerprinted for a RecordStore")
    pairs = source.pairs_for_metric(metric_name)[offset:offset + limit]
    hasher = hashlib.sha256()
    for pair in pairs:
        hasher.update(token_of(pair).encode("utf-8"))
        hasher.update(b"\n")
    return PairFingerprint(kind=kind, metric_name=metric_name, offset=offset,
                           limit=limit, chunk_size=chunk_size,
                           params_token=params_token,
                           content_digest=hasher.hexdigest())


def _sha256_file(path: Path) -> str:
    """The sha256 hex digest of a file's bytes, read in bounded chunks."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class StoreVerification:
    """Result of :meth:`RecordStore.verify`: a bit-rot audit of the store.

    ``problems`` lists every mismatch found (each naming the offending
    path): a block whose bytes no longer hash to the digest recorded at
    publication time, a missing or unreadable file, or a block-count
    mismatch against the entry's metadata.  ``unverified`` lists entries
    published before per-block digests were recorded -- they cannot be
    audited, only re-published.
    """

    entries: int
    blocks: int
    problems: tuple[str, ...]
    unverified: tuple[str, ...]


class RecordStore:
    """A content-addressed, atomically-published cache of record blocks.

    Layout::

        <directory>/store.json                    format tag
        <directory>/objects/<aa>/<digest>/meta.json
        <directory>/objects/<aa>/<digest>/block-NNNNN.rcb

    where ``<aa>`` is the digest's first two hex characters (the usual
    fan-out that keeps any one directory small) and the blocks are the
    slice's record blocks in production order.  :meth:`get` loads them
    with one read per file (columns are read-only views of that buffer);
    :meth:`put` publishes a new entry atomically and is idempotent --
    republishing an existing digest is a no-op, and two processes
    publishing the same digest race benignly.
    """

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        marker_path = self.directory / "store.json"
        if marker_path.exists():
            try:
                tag = json.loads(marker_path.read_text()).get("format")
            except (OSError, json.JSONDecodeError) as error:
                raise ValueError(
                    f"corrupt record store marker {marker_path}: {error}") from error
            if tag != _STORE_FORMAT:
                raise ValueError(f"record store {self.directory} has format "
                                 f"{tag!r}, expected {_STORE_FORMAT!r}")
        else:
            marker_path.write_text(
                json.dumps({"format": _STORE_FORMAT,
                            "schema_version": STORE_SCHEMA_VERSION},
                           sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    def _entry_dir(self, fingerprint: PairFingerprint) -> Path:
        digest = fingerprint.digest
        return self.directory / "objects" / digest[:2] / digest

    def get(self, fingerprint: PairFingerprint) -> list[Any] | None:
        """The slice's blocks, or None on a miss.

        Loads exactly the ``meta["blocks"]`` block files the entry was
        published with and checks their rows against ``meta["rows"]``, so
        a damaged entry raises ``ValueError`` instead of serving a short
        slice as a complete hit.
        """
        entry = self._entry_dir(fingerprint)
        meta_path = entry / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            raise self._damaged(entry, f"unreadable metadata {meta_path} ({error})") from error
        declared, rows = meta.get("blocks"), meta.get("rows")
        if not isinstance(declared, int) or not isinstance(rows, int):
            raise self._damaged(entry, f"metadata {meta_path} declares blocks="
                                       f"{declared!r}, rows={rows!r}")
        blocks = []
        for index in range(declared):
            try:
                blocks.append(load_rcb_any(entry / f"block-{index:05d}.rcb"))
            except ValueError as error:
                raise self._damaged(entry, str(error)) from error
        loaded = sum(len(block) for block in blocks)
        if loaded != rows:
            raise self._damaged(entry, f"its {declared} block file(s) hold {loaded} "
                                       f"row(s), metadata declares {rows}")
        return blocks

    def _damaged(self, entry: Path, reason: str) -> ValueError:
        return ValueError(
            f"record store entry {entry} is damaged: {reason}; run "
            f"`repro-monitor store verify {self.directory}` and delete the "
            "entry so the next run recomputes it")

    def put(self, fingerprint: PairFingerprint, blocks: Sequence[Any]) -> None:
        """Publish the slice's blocks under ``fingerprint`` atomically."""
        entry = self._entry_dir(fingerprint)
        if (entry / "meta.json").exists():
            return
        staging = entry.parent / (entry.name + ".staging")
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        block_digests = []
        for index, block in enumerate(blocks):
            block_path = staging / f"block-{index:05d}.rcb"
            block.save_rcb(block_path)
            # Digest of the bytes as published: verify() re-hashes the
            # files later and any divergence is bit-rot by definition.
            block_digests.append(_sha256_file(block_path))
        meta = {
            "digest": fingerprint.digest,
            "kind": fingerprint.kind,
            "metric_name": fingerprint.metric_name,
            "offset": fingerprint.offset,
            "limit": fingerprint.limit,
            "chunk_size": fingerprint.chunk_size,
            "schema_version": fingerprint.schema_version,
            "blocks": len(blocks),
            "block_digests": block_digests,
            "rows": sum(len(block) for block in blocks),
        }
        (staging / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n")
        try:
            os.rename(staging, entry)
        except OSError:
            # Another writer published this digest first; both copies are
            # byte-identical by construction, so drop ours.
            shutil.rmtree(staging, ignore_errors=True)

    # ------------------------------------------------------------------
    def entries(self) -> Iterable[Path]:
        """The published entry directories, in digest order."""
        objects = self.directory / "objects"
        if not objects.is_dir():
            return []
        return [entry
                for shard in sorted(objects.iterdir())
                for entry in sorted(shard.iterdir())
                if (entry / "meta.json").exists()]

    # ------------------------------------------------------------------
    def verify(self) -> StoreVerification:
        """Re-hash every published block against its recorded digest.

        Publication is atomic, so any divergence found here happened
        *after* the entry was published -- disk bit-rot, truncation, or
        someone editing the store by hand.  Nothing is repaired: a bad
        entry should be deleted so the next run recomputes and
        re-publishes it.
        """
        entries = 0
        blocks = 0
        problems: list[str] = []
        unverified: list[str] = []
        for entry in self.entries():
            entries += 1
            meta_path = entry / "meta.json"
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
                problems.append(f"{meta_path}: unreadable metadata ({error})")
                continue
            block_paths = sorted(entry.glob("block-*.rcb"))
            declared = meta.get("blocks")
            if declared != len(block_paths):
                problems.append(f"{entry}: metadata declares {declared} block "
                                f"file(s) but {len(block_paths)} are present")
            digests = meta.get("block_digests")
            if digests is None:
                unverified.append(f"{entry}: published before per-block digests "
                                  "were recorded; delete it to re-publish "
                                  "verifiably")
                continue
            for block_path, expected in zip(block_paths, digests):
                blocks += 1
                try:
                    actual = _sha256_file(block_path)
                except OSError as error:
                    problems.append(f"{block_path}: unreadable ({error})")
                    continue
                if actual != expected:
                    problems.append(f"{block_path}: sha256 {actual[:12]}... does "
                                    f"not match the published digest "
                                    f"{str(expected)[:12]}... (bit rot)")
        return StoreVerification(entries=entries, blocks=blocks,
                                 problems=tuple(problems),
                                 unverified=tuple(unverified))
