"""Every synthetic survey trace, pinned byte for byte.

The generators' fast paths (exact pulse grids, per-shape caches, skipped
zero-amplitude terms) must leave every byte of every trace as it is.
This test pins, per metric, one sha256 over every pair's
``repr(parameters)`` and the bytes of its trace, for:

* ``one-day``: the 806-pair survey fleet at seed 7, one day per pair at
  the metrics' production polling intervals.  It holds pairs whose
  bandwidth is below one cycle per day, i.e. a zero-amplitude diurnal
  term, in all three diurnal families;
* ``twelve-hour``: a 168-pair fleet of 12-hour traces at seed 3;
* ``off-grid``: each metric's first one-day pair regenerated on a
  ``30 / 7`` s grid, where ``k * interval`` is not exact and pulses are
  evaluated one by one.

``PYTHONPATH=src python tests/telemetry/test_trace_pins.py`` rewrites
``golden_traces.json``; only a change that alters traces on purpose
does that, and lists what moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.models import generate_trace

GOLDEN = Path(__file__).with_name("golden_traces.json")

OFF_GRID_INTERVAL = 30.0 / 7.0


def _fleet_digests(config: DatasetConfig) -> dict[str, str]:
    dataset = FleetDataset(config)
    digests = {}
    for metric in dataset.metric_names():
        digest = hashlib.sha256()
        for pair in dataset.pairs_for_metric(metric):
            digest.update(repr(pair.parameters).encode())
            digest.update(dataset.load(pair).values.tobytes())
        digests[metric] = digest.hexdigest()
    return digests


def _off_grid_digests() -> dict[str, str]:
    dataset = FleetDataset(DatasetConfig(pair_count=806, seed=7))
    digests = {}
    for metric in dataset.metric_names():
        pair = dataset.pairs_for_metric(metric)[0]
        trace = generate_trace(pair.metric, pair.parameters, dataset.trace_duration,
                               interval=OFF_GRID_INTERVAL,
                               rng=np.random.default_rng(pair.parameters.seed),
                               device_name=pair.device.device_id)
        digest = hashlib.sha256(repr(pair.parameters).encode())
        digest.update(trace.values.tobytes())
        digests[metric] = digest.hexdigest()
    return digests


CASES = {
    "one-day": lambda: _fleet_digests(DatasetConfig(pair_count=806, seed=7)),
    "twelve-hour": lambda: _fleet_digests(
        DatasetConfig(pair_count=168, trace_duration=43200.0, seed=3)),
    "off-grid": _off_grid_digests,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_survey_traces_are_unchanged(name):
    golden = json.loads(GOLDEN.read_text())
    measured = CASES[name]()
    assert sorted(measured) == sorted(golden[name]), f"{name}: metric list drifted"
    drifted = [metric for metric in measured if measured[metric] != golden[name][metric]]
    assert not drifted, (
        f"{name}: traces of {drifted} drifted from golden (frozen under numpy "
        f"{golden['numpy']}, running numpy {np.__version__})")


if __name__ == "__main__":
    frozen = {"numpy": np.__version__, **{name: case() for name, case in CASES.items()}}
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
