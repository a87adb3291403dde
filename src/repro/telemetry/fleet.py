"""Fleet construction: the population of monitored devices.

The paper's survey coalesces "information from O(10^3) devices" per metric.
:func:`build_fleet` creates a reproducible population of
:class:`~repro.telemetry.profiles.DeviceProfile` objects with a realistic
role mix (ToR / aggregation / core switches and servers); the dataset layer
then decides which metrics are monitored on which devices.
"""

from __future__ import annotations

import numpy as np

from .profiles import DeviceProfile, DeviceRole

__all__ = ["DEFAULT_ROLE_MIX", "build_fleet"]

#: Fraction of the fleet in each role.  Roughly a 2-tier Clos deployment
#: plus the servers whose CPU/memory metrics the survey includes.
DEFAULT_ROLE_MIX: dict[DeviceRole, float] = {
    DeviceRole.TOR_SWITCH: 0.40,
    DeviceRole.AGGREGATION_SWITCH: 0.15,
    DeviceRole.CORE_SWITCH: 0.05,
    DeviceRole.SERVER: 0.40,
}


def build_fleet(num_devices: int, seed: int = 0) -> list[DeviceProfile]:
    """Create ``num_devices`` device profiles with the :data:`DEFAULT_ROLE_MIX`.

    The assignment is deterministic for a given ``seed`` so every run of a
    benchmark or test sees the same fleet.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    mix = DEFAULT_ROLE_MIX
    total = sum(mix.values())
    rng = np.random.default_rng(seed)
    roles = list(mix)
    probabilities = np.array([mix[role] for role in roles]) / total
    assignments = rng.choice(len(roles), size=num_devices, p=probabilities)

    fleet = []
    counters = {role: 0 for role in roles}
    for index in range(num_devices):
        role = roles[int(assignments[index])]
        counters[role] += 1
        device_id = f"{role.value}-{counters[role]:04d}"
        fleet.append(DeviceProfile(device_id=device_id, role=role,
                                   seed=int(rng.integers(0, 2 ** 31 - 1))))
    return fleet
