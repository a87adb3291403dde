"""Cold start stays on numpy: scipy and networkx are never imported by default.

Every ``repro-monitor`` call and every survey worker pays its imports
before doing any work.  The batched engine's FFT is numpy's (scipy's
threaded one loads only for ``fft_workers > 1``) and fabrics are the
in-house :class:`~repro.network.topology.Fabric`, so neither library may
appear in ``sys.modules`` after importing the CLI and running both fleet
surveys in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys

import repro.cli
from repro.analysis import run_policy_survey, run_survey
from repro.network import DeploymentSpec, TopologySpec
from repro.pipeline import PolicySuite
from repro.telemetry import DatasetConfig, FleetDataset

source = DeploymentSpec(topology=TopologySpec(num_spines=1, num_leaves=2, servers_per_leaf=1),
                        trace_duration=7200.0).open()
policies = run_policy_survey(source, PolicySuite(production_oversample=4.0,
                                                 adaptive_window=3600.0),
                             accountant=source.accountant(), metrics=["Temperature"])
survey = run_survey(FleetDataset(DatasetConfig(pair_count=20, seed=3)))
assert len(policies) > 0 and len(survey) == 20
print(",".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_cli_and_both_surveys_import_neither_scipy_nor_networkx():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    loaded = set(out.stdout.strip().split(","))
    assert "repro" in loaded and "numpy" in loaded
    assert sorted(loaded & {"scipy", "networkx"}) == []
