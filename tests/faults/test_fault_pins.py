"""Content tokens and survey record bytes of fault-injected fleets, pinned.

The record store keys every slice on its pairs' content tokens, so a
token that changes text silently drops a store filled by an earlier run.
These tests pin the exact token of a synthetic pair and of the same pair
behind a :class:`~repro.faults.FaultInjectingTraceSource` whose plan uses
the data-degrading kinds.  They also hash every ``run_survey`` record
block of a 112-pair fleet under each data fault kind, so a change to
fault placement (window positions, the window fraction, the pair
assignment) shows as a changed digest.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis import run_survey
from repro.faults import DATA_FAULT_KINDS, FaultInjectingTraceSource, FaultPlan
from repro.telemetry.dataset import DatasetConfig, FleetDataset

FLEET = DatasetConfig(pair_count=28, seed=5)

SYNTHETIC_TOKEN = (
    "DatasetConfig(pair_count=28, trace_duration=86400.0, metrics=('5-pct CPU util', "
    "'Temperature', 'Memory usage', 'Link util', 'Unicast bytes', 'Multicast bytes', "
    "'Unicast drops', 'Multicast drops', 'In-bound discards', 'Out-bound discards', "
    "'FCS errors', 'Lossy paths', 'Peak egress BW', 'Peak ingress BW'), "
    "broadband_fraction=0.11, seed=5)|5-pct CPU util|server-0002|"
    "MetricParameters(bandwidth_hz=0.011625630226807376, level=33.11004016790701, "
    "amplitude=14.4893546004721, noise_std=0.09499618483459445, broadband=False, "
    "burst_rate_per_day=4.603006760545294, seed=1888148861)")

FAULT_TOKEN = (SYNTHETIC_TOKEN + "|faults=seed=3,fraction=0.5,"
               "kinds=('counter-wrap', 'device-reboot', 'blackout'),blackout_fraction=0.2")

#: sha256 of the survey record blocks of a 112-pair fleet per data fault kind.
EXPECTED = {
    "counter-wrap": "0c581c0b18bdc680e250b5106a4ff71808341235958aab9fef02a8d29bdf31d7",
    "device-reboot": "dae5f18963914d0db85824b58defa051bb47704da5f9d7e2134ead1d196013f2",
    "blackout": "ee35ce656d8e380d38a847484bea549f793c4825cea86fe3bafc9f5870d2cc6c",
}


def _digest(blocks) -> str:
    """sha256 over every field of every block: name, dtype, shape and bytes."""
    hasher = hashlib.sha256()
    for block in blocks:
        hasher.update(type(block).__name__.encode())
        for spec in dataclasses.fields(block):
            value = getattr(block, spec.name)
            if isinstance(value, np.ndarray):
                array = np.ascontiguousarray(value)
                hasher.update(f"{spec.name}:{array.dtype.str}:{array.shape}".encode())
                hasher.update(array.tobytes())
            else:
                hasher.update(f"{spec.name}={value!r}".encode())
    return hasher.hexdigest()


def test_synthetic_pair_token_is_unchanged():
    fleet = FleetDataset(FLEET)
    assert fleet.pair_content_token(fleet.pairs()[0]) == SYNTHETIC_TOKEN


def test_fault_injected_pair_token_is_unchanged():
    fleet = FleetDataset(FLEET)
    chaotic = FaultInjectingTraceSource(
        fleet, FaultPlan(seed=3, fraction=0.5, kinds=DATA_FAULT_KINDS))
    assert chaotic.pair_content_token(fleet.pairs()[0]) == FAULT_TOKEN


@pytest.mark.parametrize("kind", DATA_FAULT_KINDS)
def test_fault_injected_survey_blocks_are_unchanged(kind):
    chaotic = FaultInjectingTraceSource(
        FleetDataset(DatasetConfig(pair_count=112, seed=7)),
        FaultPlan(seed=4, fraction=0.5, kinds=(kind,)))
    result = run_survey(chaotic)
    assert _digest(result.iter_blocks()) == EXPECTED[kind]
