"""Every policy record byte of a small scenario grid, pinned by sha256.

The golden stationary cell (``test_ordering.py``) pins one cell's summary
numbers; a change in the adaptive controller's arithmetic that leaves
those sums alone, or that only shows under a regime shift, would pass it.
This test hashes the full ``run_policy_survey`` record blocks -- every
column of every policy's rows, rates, costs and nrmse included -- of the
2-leaf preset leaf-spine fabric under every preset scenario and two
deployment seeds, and compares them with digests taken from the
implementation that published the scenario matrix (the stationary,
flap-churn and incident rows) or from the one before the per-shape
constants were cached (the diurnal, cal-storm, faulty-counters and
blackout rows).  A performance change to the controller's spectral steps must
leave every digest as it is.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis import run_policy_survey
from repro.scenarios.presets import default_fabrics, default_scenarios, paper_suite

SCENARIOS = {scenario.name: scenario for scenario in default_scenarios()}

#: sha256 of the record blocks per (scenario, deployment seed).
EXPECTED = {
    ("stationary", 11):
        "9d9d1417887b3fe0ceae11f31abfa0e1fb73dfae697839137fab59fbd82d76b2",
    ("stationary", 12):
        "bb02a381d9ec69f8773a2a695697401ca749fd98aae8ac837dea43903e2fe9b0",
    ("flap-churn", 11):
        "268ab736b999cc3a2c67cc68588eb2cdd40a0dab61e0928e56aaad83f6ba0279",
    ("flap-churn", 12):
        "c6009fcfa57af339baee6b6b247fe4b9f7cd566d798ed1f70470328f2f400f35",
    ("incident", 11):
        "fcef57c0272b3987988adf852f116edd0b77ad94f360fa2b3f5dc305457b5671",
    ("incident", 12):
        "7125328e33610b1b13bd8e19dd7f72720c021b2a71edc0d531bbe2c02b1b1eac",
    ("diurnal", 11):
        "869c1a87fb2511fc0bb2ff803fef15cf472e84e6b2129b7b08eba23d36e7378c",
    ("diurnal", 12):
        "53adfb989815046c88282030989eb87b1e9596959aa1745ef4a2c0e42387de11",
    ("cal-storm", 11):
        "bb95edec8778e6c12cb2b73ce7d6149ed0a8a5519faad0ab373b797a22853ec7",
    ("cal-storm", 12):
        "c1f5977a8bc47e05c6d50639fc34837bacc4273ffa4266edffcbf3ba8a6c5d4e",
    ("faulty-counters", 11):
        "a4ac14a389ef13842846ea13c8eef066685d62aa1713d8fdaed69eb4b8c3aa8e",
    ("faulty-counters", 12):
        "1395bd67d28a7b22a0705104e84b182d939afd60164a45f668b4cce053333f3c",
    ("blackout", 11):
        "8d71e9cb77192f66dd21e32d068d173c649f312c6a1aee83f234e1a6076421b4",
    ("blackout", 12):
        "aedc0ed65bf472b7a707d2a3804dd673857d06b1200693c962b0d3fcb134b73b",
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


@pytest.mark.parametrize("scenario_name, seed", sorted(EXPECTED))
def test_policy_record_blocks_are_unchanged(scenario_name, seed):
    spec = dataclasses.replace(default_fabrics()["leaf-spine"], seed=seed)
    source = spec.open()
    result = run_policy_survey(SCENARIOS[scenario_name].wrap(source), paper_suite(),
                               accountant=source.accountant())
    assert _digest(result.iter_blocks()) == EXPECTED[(scenario_name, seed)]
