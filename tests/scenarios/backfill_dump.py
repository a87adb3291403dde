"""Late backfill: blackout-window telemetry arriving out of order at ingest.

A partition does two things to an archive.  It flattens the affected
samples (the collector backfills the gap with the last value it saw --
:class:`~repro.scenarios.transforms.BlackoutWindow` models that), and it
*reorders arrival*: when connectivity returns, the buffered window drains
after updates that were produced later.  This module fabricates that
second half as a gNMI dump whose blackout-window updates are deferred to
the stream's end, so the streaming importer meets a realistic out-of-order
archive.

The importer's contract (``repro.telemetry.ingest``: output depends only
on the update *set*) is exactly what makes late backfill safe -- ingesting
an in-order dump, a late-backfill dump, or an arbitrarily shuffled dump of
the same fleet produces byte-identical directories.  The scenario suite
pins that property with hypothesis-driven shuffles.

Tests import it as ``from backfill_dump import export_backfill_dump``;
pytest puts this directory on ``sys.path`` because the test modules next
to it live here.
"""

from __future__ import annotations

import heapq
import json
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.scenarios import BlackoutWindow
from repro.signals.timeseries import TimeSeries
from repro.telemetry.ingest import path_for_metric
from repro.telemetry.source import TraceSource


def _update_lines(order: int, pair: Any,
                  trace: TimeSeries) -> Iterator[tuple[float, int, str]]:
    """(timestamp, tiebreak, line) updates of one pair, gNMI JSON-lines shaped.

    Identical line bytes to ``export_gnmi_dump``'s emitter: repr floats
    for exact round-trips, json-encoded device and path.
    """
    device_json = json.dumps(pair.key[1])
    path_json = json.dumps(path_for_metric(pair.key[0]))
    times = trace.times()
    for index in range(len(trace)):
        yield (float(times[index]), order,
               f'{{"timestamp": {float(times[index])!r}, "device": {device_json}, '
               f'"path": {path_json}, "value": {float(trace.values[index])!r}}}\n')


def export_backfill_dump(source: TraceSource, path: Path | str,
                         blackout: BlackoutWindow,
                         metrics: Sequence[str] | None = None) -> tuple[Path, int]:
    """Write ``source`` as a gNMI dump whose blackout window arrives late.

    Updates outside the blackout window are emitted globally time-ordered
    (the normal append-only log); updates whose offset into the trace
    falls inside the blackout window's ``[start, stop)`` fraction of the
    trace duration are held back and appended
    after the entire in-order stream, themselves time-ordered -- the
    buffered site draining once the partition heals.  Returns the dump
    path and how many updates arrived late.

    The dump contains exactly the same update *set* as
    ``export_gnmi_dump`` would emit, so ingesting it reproduces the
    in-order fleet bit for bit.
    """
    path = Path(path)
    metric_names = list(metrics) if metrics is not None else source.metric_names()

    live_streams = []
    late_streams = []
    order = 0
    for metric_name in metric_names:
        for pair, trace in source.traces(metric_name):
            start = blackout.start_fraction * trace.duration
            stop = (blackout.start_fraction + blackout.duration_fraction) * trace.duration
            updates = list(_update_lines(order, pair, trace))
            live = [u for u in updates if not start <= u[0] - trace.start_time < stop]
            late = [u for u in updates if start <= u[0] - trace.start_time < stop]
            live_streams.append(live)
            late_streams.append(late)
            order += 1

    deferred = sum(len(stream) for stream in late_streams)
    with path.open("w") as handle:
        for _, _, line in heapq.merge(*live_streams):
            handle.write(line)
        for _, _, line in heapq.merge(*late_streams):
            handle.write(line)
    return path, deferred
