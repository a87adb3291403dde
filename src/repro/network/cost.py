"""Monitoring cost model: collection, transmission, storage and analysis.

"Every aspect of the task of monitoring -- collection, transmission,
analysis, and storage -- all consume resources that, when considering the
scale of modern data centers, represent a non-negligible overhead" (§3.1).
The model here prices a monitoring configuration sample by sample:

* **collection** -- CPU time on the monitored device per sample taken;
* **transmission** -- bytes moved across the fabric, weighted by the hop
  count from the device to its collector;
* **storage** -- bytes retained at the collector;
* **analysis** -- per-sample processing at the collector.

The absolute constants are configurable; the comparisons the paper cares
about (baseline vs Nyquist-rate vs adaptive sampling) are ratios, which are
insensitive to the exact constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .topology import Fabric, hop_counts

__all__ = ["CostModel", "CostBreakdown", "TelemetryCostAccountant"]


@dataclass(frozen=True)
class CostModel:
    """Per-sample unit costs.

    Attributes
    ----------
    bytes_per_sample:
        Wire/storage size of one sample (timestamp + value + metadata).
    collection_cpu_us:
        CPU microseconds spent on the monitored device to take one sample
        (reading a counter, locking a flow table, sending a probe, ...).
    transmission_cost_per_byte_hop:
        Cost of moving one byte across one fabric hop.
    storage_cost_per_byte:
        Cost of retaining one byte at the collector.
    analysis_cost_per_sample:
        Cost of ingesting/processing one sample at the collector.
    """

    bytes_per_sample: float = 64.0
    collection_cpu_us: float = 50.0
    transmission_cost_per_byte_hop: float = 1.0
    storage_cost_per_byte: float = 1.0
    analysis_cost_per_sample: float = 10.0

    def __post_init__(self) -> None:
        for name in ("bytes_per_sample", "collection_cpu_us",
                     "transmission_cost_per_byte_hop", "storage_cost_per_byte",
                     "analysis_cost_per_sample"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class CostBreakdown:
    """Accumulated cost of a monitoring run, by component."""

    samples: int = 0
    collection_cpu_us: float = 0.0
    transmission: float = 0.0
    storage_bytes: float = 0.0
    analysis: float = 0.0

    @property
    def total(self) -> float:
        """A single scalar combining all components (unit-weighted sum)."""
        return (self.collection_cpu_us + self.transmission
                + self.storage_bytes + self.analysis)

    def add(self, other: "CostBreakdown") -> "CostBreakdown":
        """Accumulate another breakdown into this one (returns self)."""
        self.samples += other.samples
        self.collection_cpu_us += other.collection_cpu_us
        self.transmission += other.transmission
        self.storage_bytes += other.storage_bytes
        self.analysis += other.analysis
        return self

    def as_dict(self) -> dict[str, float]:
        return {
            "samples": float(self.samples),
            "collection_cpu_us": self.collection_cpu_us,
            "transmission": self.transmission,
            "storage_bytes": self.storage_bytes,
            "analysis": self.analysis,
            "total": self.total,
        }

    def relative_to(self, baseline: "CostBreakdown") -> dict[str, float]:
        """Each component as a fraction of ``baseline`` (nan when baseline is 0)."""
        result = {}
        ours = self.as_dict()
        theirs = baseline.as_dict()
        for key, value in ours.items():
            result[key] = value / theirs[key] if theirs[key] else float("nan")
        return result


class TelemetryCostAccountant:
    """Prices sample collection against a topology and a cost model.

    Hop counts from every device to its collector are computed once (BFS
    shortest path, :func:`~repro.network.topology.hop_counts`) and cached;
    the topology is a :class:`~repro.network.topology.Fabric` or any graph
    with ``neighbors()`` and ``in``, such as a ``networkx.Graph``.  Devices
    not present in the topology are priced with a configurable default hop
    count, which keeps the accountant usable for abstract (topology-less)
    experiments too.
    """

    def __init__(self, cost_model: CostModel | None = None,
                 topology: Fabric | None = None,
                 collector: str | None = None,
                 default_hops: int = 3) -> None:
        if default_hops < 0:
            raise ValueError("default_hops must be non-negative")
        self.cost_model = cost_model or CostModel()
        self.topology = topology
        self.collector = collector
        self.default_hops = default_hops
        self._hop_cache: dict[str, int] = {}
        if topology is not None and collector is not None:
            if collector not in topology:
                raise ValueError(f"collector {collector!r} not in topology")
            self._hop_cache = hop_counts(topology, collector)

    def hops(self, device: str) -> int:
        """Fabric hops from ``device`` to the collector."""
        return self._hop_cache.get(device, self.default_hops)

    def cache_token(self) -> str:
        """Canonical parameter string for content-addressed record caching.

        Captures everything that changes a priced record: the cost model,
        the default hop count and the per-device hop table (sorted, so the
        token does not depend on BFS traversal order).
        """
        hops = ", ".join(f"{device}:{count}"
                         for device, count in sorted(self._hop_cache.items()))
        return (f"{type(self).__name__}(cost_model={self.cost_model!r}, "
                f"default_hops={self.default_hops}, hops=[{hops}])")

    def price_samples(self, device: str, sample_count: int) -> CostBreakdown:
        """Cost of collecting, shipping, storing and analysing ``sample_count`` samples."""
        if sample_count < 0:
            raise ValueError("sample_count must be non-negative")
        model = self.cost_model
        bytes_moved = sample_count * model.bytes_per_sample
        return CostBreakdown(
            samples=sample_count,
            collection_cpu_us=sample_count * model.collection_cpu_us,
            transmission=bytes_moved * self.hops(device) * model.transmission_cost_per_byte_hop,
            storage_bytes=bytes_moved * model.storage_cost_per_byte,
            analysis=sample_count * model.analysis_cost_per_sample,
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
        model = self.cost_model
        hops = self.hops_array(devices)
        bytes_moved = counts * model.bytes_per_sample
        return {
            "hops": hops,
            "collection_cpu_us": counts * model.collection_cpu_us,
            "transmission": bytes_moved * hops * model.transmission_cost_per_byte_hop,
            "storage_bytes": bytes_moved * model.storage_cost_per_byte,
            "analysis": counts * model.analysis_cost_per_sample,
        }
