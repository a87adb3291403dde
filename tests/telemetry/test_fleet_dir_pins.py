"""Measured-fleet directories, pinned byte for byte.

A measured-fleet directory (``manifest.json`` plus ``traces/pair-*``) is
written by three paths: ``export_traces`` (``FleetDataset.export``), the
serial ingest and the sharded ingest's merge.  This test pins one sha256
per published file of each, for one small synthetic fleet:

* ``export-rcb`` / ``export-csv``: the fleet exported in each trace format;
* ``gnmi-serial`` / ``gnmi-workers2``: its gNMI dump ingested with
  ``workers=1`` and ``workers=2``;
* ``snmp-serial``: its SNMP dump ingested serially.

Dumps are ingested from a relative path inside a fresh working directory,
so the manifest's ``ingest.source`` is the same on every machine.

``PYTHONPATH=src python tests/telemetry/test_fleet_dir_pins.py`` rewrites
``golden_fleet_dirs.json``; only a change that alters the directory
layout on purpose does that, and lists what moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.ingest import export_gnmi_dump, export_snmp_dump, ingest_dump

GOLDEN = Path(__file__).with_name("golden_fleet_dirs.json")

FLEET = DatasetConfig(pair_count=28, trace_duration=7200.0, seed=5)


def _file_digests(directory: Path) -> dict[str, str]:
    return {str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def _exported(fmt: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as scratch:
        FleetDataset(FLEET).export(Path(scratch) / "fleet", fmt=fmt)
        return _file_digests(Path(scratch) / "fleet")


def _ingested(exporter: Callable, dump_name: str, workers: int) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        exporter(FleetDataset(FLEET), dump_name)
        ingest_dump(dump_name, "fleet", workers=workers)
        return _file_digests(Path("fleet"))


CASES = {
    "export-rcb": lambda: _exported("rcb"),
    "export-csv": lambda: _exported("csv"),
    "gnmi-serial": lambda: _ingested(export_gnmi_dump, "fleet.jsonl", workers=1),
    "gnmi-workers2": lambda: _ingested(export_gnmi_dump, "fleet.jsonl", workers=2),
    "snmp-serial": lambda: _ingested(export_snmp_dump, "fleet.csv", workers=1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fleet_directory_is_unchanged(name):
    golden = json.loads(GOLDEN.read_text())
    measured = CASES[name]()
    assert sorted(measured) == sorted(golden[name]), f"{name}: file list drifted"
    drifted = [path for path in measured if measured[path] != golden[name][path]]
    assert not drifted, (
        f"{name}: {drifted} drifted from golden (frozen under numpy "
        f"{golden['numpy']}, running numpy {np.__version__})")


if __name__ == "__main__":
    frozen = {"numpy": np.__version__, **{name: case() for name, case in CASES.items()}}
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
