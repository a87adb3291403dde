"""Monitoring cost model: collection, transmission, storage and analysis.

"Every aspect of the task of monitoring -- collection, transmission,
analysis, and storage -- all consume resources that, when considering the
scale of modern data centers, represent a non-negligible overhead" (§3.1).
The model here prices a monitoring configuration sample by sample:

* **collection** -- CPU time on the monitored device per sample taken
  (50 us: reading a counter, locking a flow table, sending a probe);
* **transmission** -- bytes moved across the fabric (64 per sample:
  timestamp, value and metadata), weighted by the hop count from the
  device to its collector (1 per byte-hop);
* **storage** -- bytes retained at the collector (1 per byte);
* **analysis** -- per-sample processing at the collector (10 per sample).

The unit costs are fixed: the comparisons the paper cares about (baseline
vs Nyquist-rate vs adaptive sampling) are ratios, which are insensitive to
the exact constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .topology import Fabric, hop_counts

__all__ = ["CostBreakdown", "TelemetryCostAccountant"]

# Per-sample unit costs (see the module docstring).
_BYTES_PER_SAMPLE = 64.0
_COLLECTION_CPU_US = 50.0
_TRANSMISSION_COST_PER_BYTE_HOP = 1.0
_STORAGE_COST_PER_BYTE = 1.0
_ANALYSIS_COST_PER_SAMPLE = 10.0

#: Hops charged for a device the topology does not hold.
_DEFAULT_HOPS = 3


@dataclass
class CostBreakdown:
    """The priced cost of collecting some samples, by component."""

    samples: int = 0
    collection_cpu_us: float = 0.0
    transmission: float = 0.0
    storage_bytes: float = 0.0
    analysis: float = 0.0


class TelemetryCostAccountant:
    """Prices sample collection against a topology with the fixed unit costs.

    Hop counts from every device to its collector are computed once (BFS
    shortest path, :func:`~repro.network.topology.hop_counts`) and cached;
    the topology is a :class:`~repro.network.topology.Fabric` or any graph
    with ``neighbors()`` and ``in``, such as a ``networkx.Graph``.  Devices
    not present in the topology are priced at three hops, which keeps the
    accountant usable for abstract (topology-less) experiments too.
    """

    def __init__(self, topology: Fabric | None = None,
                 collector: str | None = None) -> None:
        self.topology = topology
        self.collector = collector
        self._hop_cache: dict[str, int] = {}
        if topology is not None and collector is not None:
            if collector not in topology:
                raise ValueError(f"collector {collector!r} not in topology")
            self._hop_cache = hop_counts(topology, collector)

    def hops(self, device: str) -> int:
        """Fabric hops from ``device`` to the collector."""
        return self._hop_cache.get(device, _DEFAULT_HOPS)

    def cache_token(self) -> str:
        """Canonical parameter string for content-addressed record caching.

        Captures everything that changes a priced record: the per-device
        hop table (sorted, so the token does not depend on BFS traversal
        order).  The fixed unit costs and default hop count are written
        out as the ``CostModel(...)`` and ``default_hops`` text they had as
        options, so stores filled before they were fixed still hit.
        """
        hops = ", ".join(f"{device}:{count}"
                         for device, count in sorted(self._hop_cache.items()))
        return ("TelemetryCostAccountant(cost_model=CostModel(bytes_per_sample=64.0, "
                "collection_cpu_us=50.0, transmission_cost_per_byte_hop=1.0, "
                "storage_cost_per_byte=1.0, analysis_cost_per_sample=10.0), "
                f"default_hops=3, hops=[{hops}])")

    def price_samples(self, device: str, sample_count: int) -> CostBreakdown:
        """Cost of collecting, shipping, storing and analysing ``sample_count`` samples."""
        if sample_count < 0:
            raise ValueError("sample_count must be non-negative")
        bytes_moved = sample_count * _BYTES_PER_SAMPLE
        return CostBreakdown(
            samples=sample_count,
            collection_cpu_us=sample_count * _COLLECTION_CPU_US,
            transmission=bytes_moved * self.hops(device) * _TRANSMISSION_COST_PER_BYTE_HOP,
            storage_bytes=bytes_moved * _STORAGE_COST_PER_BYTE,
            analysis=sample_count * _ANALYSIS_COST_PER_SAMPLE,
        )

    def hops_array(self, devices: Sequence[str]) -> np.ndarray:
        """Hop count per device, as an integer column."""
        return np.fromiter((self.hops(device) for device in devices), np.int64,
                           len(devices))

    def price_sample_block(self, devices: Sequence[str],
                           sample_counts: np.ndarray) -> dict[str, np.ndarray]:
        """Vectorised :meth:`price_samples`: one priced column per cost component.

        ``devices[i]`` collected ``sample_counts[i]`` samples; the result
        maps component name (``hops``, ``collection_cpu_us``,
        ``transmission``, ``storage_bytes``, ``analysis``) to a per-row
        array.  Row ``i`` equals ``price_samples(devices[i],
        sample_counts[i])`` -- this is the cost-accounting hot path of the
        fleet policy survey, where pricing a block is five array
        multiplies instead of one Python call per (device, policy) row.
        """
        counts = np.asarray(sample_counts, dtype=np.int64)
        if counts.ndim != 1 or counts.shape[0] != len(devices):
            raise ValueError("sample_counts must be 1-D with one entry per device")
        if np.any(counts < 0):
            raise ValueError("sample_count must be non-negative")
        hops = self.hops_array(devices)
        bytes_moved = counts * _BYTES_PER_SAMPLE
        return {
            "hops": hops,
            "collection_cpu_us": counts * _COLLECTION_CPU_US,
            "transmission": bytes_moved * hops * _TRANSMISSION_COST_PER_BYTE_HOP,
            "storage_bytes": bytes_moved * _STORAGE_COST_PER_BYTE,
            "analysis": counts * _ANALYSIS_COST_PER_SAMPLE,
        }
