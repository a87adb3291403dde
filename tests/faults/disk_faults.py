"""On-disk fault injection for the chaos layer's tests.

Tests import it as ``from disk_faults import faulty_export``; pytest puts
this directory on ``sys.path`` because the test modules next to it live
here.
"""

from __future__ import annotations

from pathlib import Path

from repro.faults import FaultPlan
from repro.telemetry.measured import MeasuredFleetDataset, export_traces
from repro.telemetry.source import TraceSource


def faulty_export(source: TraceSource, directory: Path | str,
                  plan: FaultPlan) -> MeasuredFleetDataset:
    """Export ``source`` to an rcb measured-fleet directory, then damage it.

    Every pair the plan assigns ``corrupt-trace`` gets its trace file
    overwritten with garbage bytes; every ``truncated-trace`` pair's file
    is cut to half its length (both fail the rcb size or checksum
    checks).  Other kinds do not exist on disk and are
    skipped.  The manifest stays intact, so the returned
    :class:`MeasuredFleetDataset` opens fine and fails (loudly, naming
    the file) only when a damaged pair is actually loaded -- exactly how
    real bit rot presents.
    """
    directory = Path(directory)
    export_traces(source, directory)
    dataset = MeasuredFleetDataset(directory)
    for pair in dataset.pairs():
        kind = plan.kind_for(pair.metric_name, pair.device.device_id)
        if kind not in ("corrupt-trace", "truncated-trace"):
            continue
        path = directory / pair.file
        if kind == "corrupt-trace":
            path.write_bytes(b"\x00garbage injected by FaultPlan\xff" * 8)
        else:
            payload = path.read_bytes()
            path.write_bytes(payload[:max(len(payload) // 2, 1)])
    return dataset
