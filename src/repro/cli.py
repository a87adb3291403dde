"""Command-line interface: run the surveys, the adaptive demo, and quick estimates.

Installed as ``repro-monitor`` (see pyproject) and runnable as
``python -m repro.cli``.  Six subcommands cover the common workflows:

* ``survey``   -- run the Section 3.2 fleet survey and print Figures 1/4/5
  style summaries (optionally exporting CSVs).  ``--workers`` fans trace
  production + estimation out to a process pool and ``--spill-dir``
  streams the per-pair records to ``.rcb`` chunks on disk, so 100k+-pair
  fleets run with memory bounded by ``--chunk-size``.  ``--store DIR``
  keeps a content-addressed record store across runs: a rerun with
  identical traces and parameters serves every slice from the store
  (zero estimator calls) and only changed slices are recomputed.
  ``--from-dir``
  surveys a *measured* fleet (a directory of recorded per-pair trace
  files + manifest, as written by ``export-fleet``) instead of
  generating synthetic telemetry -- same workers and sinks.
* ``policies`` -- the cost-vs-quality experiment behind the paper's
  title, at fleet scale: deploy monitoring on a leaf-spine fabric (or
  read a measured fleet with ``--from-dir``), evaluate today's
  fixed-rate polling against the Nyquist-static and adaptive dual-rate
  policies on every (metric, device) pair, price each with the
  hop-weighted network cost model, and print the relative-cost/quality
  table.  Same ``--workers`` / ``--chunk-size`` / ``--spill-dir``
  scaling as ``survey``.
* ``export-fleet`` -- round-trip a synthetic fleet to a measured-trace
  directory (one ``.rcb`` or ``.csv`` file per (metric, device) pair plus
  ``manifest.json``); ``survey --from-dir`` on the result reproduces the
  in-memory survey byte-identically.
* ``ingest`` -- stream a raw monitoring export (gNMI-style JSON lines or
  SNMP-poller wide CSV, format sniffed) into such a measured-fleet
  directory with bounded memory (``--memory-budget`` caps the in-memory
  accumulator; partial series spill to scratch files), so production
  archives become surveyable with ``survey --from-dir``.
* ``export-dump`` -- fabricate a raw monitoring export from a synthetic
  fleet (the inverse of ``ingest``), for demos, tests and benchmarks.
* ``windowed`` -- run the Figure 7 moving-window sweep over every pair of
  a fleet (the continuous re-estimation loop) and report how much each
  pair's Nyquist rate drifts.
* ``adaptive`` -- run the Section 4 adaptive controller on a synthetic
  temperature trace and report the cost saving and reconstruction error.
* ``estimate`` -- estimate the Nyquist rate of a trace stored in a CSV
  file (columns: timestamp, value).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis.policy_survey import run_policy_survey
from .analysis.reporting import ascii_bar_chart, box_stats, format_table, write_csv
from .analysis.survey import SpillingRecordSink, run_survey, run_windowed_survey
from .faults import BatchExecutionError
from .core.adaptive import AdaptiveSamplingController, ControllerConfig
from .core.nyquist import NyquistEstimator, estimate_nyquist_rate
from .core.reconstruction import nyquist_round_trip
from .network.cost import TelemetryCostAccountant
from .network.monitoring import DeploymentSpec
from .network.topology import TopologySpec
from .pipeline.policies import PolicySuite
from .records import RecordStore
from .signals.timeseries import IrregularTimeSeries
from .telemetry.dataset import DatasetConfig, FleetDataset
from .telemetry.ingest import (DEFAULT_MEMORY_BUDGET_SAMPLES, EXPORT_FORMATS,
                               GNMI_FORMAT, export_gnmi_dump,
                               export_snmp_dump, ingest_dump, open_export)
from .telemetry.measured import TRACE_FORMATS, MeasuredFleetDataset, export_traces
from .telemetry.metrics import METRIC_CATALOG
from .telemetry.models import generate_trace
from .telemetry.profiles import DeviceProfile, DeviceRole, draw_metric_parameters

__all__ = ["main", "build_parser"]


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-monitor`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-monitor",
        description="Nyquist-rate analysis and adaptive sampling for datacenter monitoring.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    survey = subparsers.add_parser("survey", help="run the fleet survey (Figures 1/4/5)")
    survey.add_argument("--pairs", type=int, default=280,
                        help="number of (metric, device) pairs to survey (default 280; "
                             "the paper's full survey is 1613)")
    survey.add_argument("--seed", type=int, default=7, help="dataset seed")
    survey.add_argument("--energy-fraction", type=float, default=0.99,
                        help="energy cut-off for the Nyquist estimator")
    survey.add_argument("--limit-per-metric", type=_non_negative_int, default=None,
                        help="cap the number of (metric, device) pairs analysed per metric")
    survey.add_argument("--csv-dir", type=Path, default=None,
                        help="directory to write figure CSVs into")
    survey.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes for trace generation + estimation "
                             "(>= 2 fans the survey out to a process pool)")
    survey.add_argument("--fft-workers", type=_positive_int, default=None,
                        help="pocketfft threads inside each batched rfft "
                             "(uses scipy if installed, else ignored)")
    survey.add_argument("--chunk-size", type=_positive_int, default=1024,
                        help="traces held in memory at once (bounds survey memory)")
    survey.add_argument("--spill-dir", type=Path, default=None,
                        help="stream per-pair records to .rcb chunks in this directory "
                             "instead of holding them in memory (out-of-core surveys)")
    survey.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="content-addressed record store for incremental "
                             "reruns: slices already computed from identical "
                             "traces and parameters are served from DIR as "
                             ".rcb blocks, misses are written back")
    survey.add_argument("--from-dir", type=Path, default=None, metavar="FLEET_DIR",
                        help="survey a measured fleet: a directory of recorded per-pair "
                             "trace files + manifest.json (see 'export-fleet'); "
                             "--pairs/--seed are ignored, the manifest defines the pairs")
    survey.add_argument("--on-error", choices=["raise", "quarantine"], default="raise",
                        help="'raise' (default) aborts on the first bad pair; "
                             "'quarantine' isolates failures per pair, completes the "
                             "healthy fleet and reports the quarantined pairs "
                             "(spilled under SPILL_DIR/failures with --spill-dir)")

    policies = subparsers.add_parser(
        "policies",
        help="fleet-scale cost vs quality of sampling policies (the paper's title)",
        description="Deploy monitoring on a demo leaf-spine fabric (or read a "
                    "measured fleet with --from-dir), evaluate the fixed-rate "
                    "baseline, the Nyquist-static policy and the adaptive "
                    "dual-rate controller on every (metric, device) pair, and "
                    "price each with the hop-weighted network cost model.")
    policies.add_argument("--spines", type=_positive_int, default=2,
                          help="spine switches in the demo fabric")
    policies.add_argument("--leaves", type=_positive_int, default=4,
                          help="leaf (ToR) switches in the demo fabric")
    policies.add_argument("--servers-per-leaf", type=_non_negative_int, default=2,
                          help="servers attached to each leaf")
    policies.add_argument("--duration-hours", type=float, default=12.0,
                          help="reference trace length in hours")
    policies.add_argument("--seed", type=int, default=11, help="deployment seed")
    policies.add_argument("--oversample", type=float, default=None,
                          help="reference traces are sampled this much faster than "
                               "production polls (default 4 for the demo fabric, "
                               "1 for --from-dir fleets recorded at production rate)")
    policies.add_argument("--adaptive-window-hours", type=float, default=4.0,
                          help="adaptation window of the dual-rate controller")
    policies.add_argument("--calibration-fraction", type=float, default=0.25,
                          help="fraction of each trace the static policy calibrates on")
    policies.add_argument("--limit-per-metric", type=_non_negative_int, default=None,
                          help="cap the number of measurement points per metric")
    policies.add_argument("--metrics", nargs="*", default=None,
                          help="restrict the evaluation to these metrics")
    policies.add_argument("--workers", type=_positive_int, default=1,
                          help="worker processes for policy evaluation "
                               "(>= 2 fans the survey out to a process pool)")
    policies.add_argument("--chunk-size", type=_positive_int, default=256,
                          help="traces held in memory at once (bounds survey memory)")
    policies.add_argument("--spill-dir", type=Path, default=None,
                          help="stream per-point records to .rcb chunks in this "
                               "directory instead of holding them in memory")
    policies.add_argument("--store", type=Path, default=None, metavar="DIR",
                          help="content-addressed record store for incremental "
                               "reruns (same semantics as survey --store)")
    policies.add_argument("--csv-dir", type=Path, default=None,
                          help="directory to write the cost/quality table CSV into")
    policies.add_argument("--from-dir", type=Path, default=None, metavar="FLEET_DIR",
                          help="evaluate a measured fleet (see 'export-fleet') instead "
                               "of the demo fabric; costs use the default hop count "
                               "since recorded fleets carry no topology")
    policies.add_argument("--on-error", choices=["raise", "quarantine"],
                          default="raise",
                          help="'raise' (default) aborts on the first bad pair; "
                               "'quarantine' isolates failures per pair, completes "
                               "the healthy fleet and reports the quarantined pairs "
                               "(spilled under SPILL_DIR/failures with --spill-dir)")

    export = subparsers.add_parser(
        "export-fleet",
        help="export a synthetic fleet to a measured-trace directory",
        description="Write one trace file per (metric, device) pair plus a "
                    "manifest.json, so the fleet can be re-surveyed from disk with "
                    "'survey --from-dir' (byte-identical records, any --workers).")
    export.add_argument("directory", type=Path,
                        help="destination directory (must not already hold a fleet)")
    export.add_argument("--pairs", type=int, default=280,
                        help="number of (metric, device) pairs to export (default 280)")
    export.add_argument("--seed", type=int, default=7, help="dataset seed")
    export.add_argument("--trace-format", choices=TRACE_FORMATS, default="rcb",
                        help="per-pair trace file format (default rcb, binary and "
                             "checksummed; csv files are timestamp,value rows "
                             "readable by 'estimate')")

    ingest = subparsers.add_parser(
        "ingest",
        help="stream a raw monitoring export (gNMI/SNMP dump) into a fleet directory",
        description="Convert a raw monitoring export -- gNMI-style JSON lines "
                    "(one timestamp/device/path/value update per line, pairs "
                    "interleaved) or an SNMP-poller wide CSV (one row per poll, "
                    "one column per OID/metric) -- into a measured-fleet "
                    "directory that 'survey --from-dir' and 'policies "
                    "--from-dir' read unchanged.  Streams with bounded memory: "
                    "partial per-pair series spill to scratch files once "
                    "--memory-budget is hit, and irregular timestamps are "
                    "re-sampled onto each pair's dominant polling interval.")
    ingest.add_argument("dump", type=Path, help="raw export file to ingest")
    ingest.add_argument("directory", type=Path,
                        help="destination fleet directory (must not already hold one)")
    ingest.add_argument("--format", choices=[*EXPORT_FORMATS, "auto"], default="auto",
                        help="wire format of the dump (default: sniff from the "
                             "first line)")
    ingest.add_argument("--memory-budget", type=_positive_int,
                        default=DEFAULT_MEMORY_BUDGET_SAMPLES, metavar="SAMPLES",
                        help="peak (timestamp, value) samples buffered in memory "
                             "across all pairs, 16 bytes each (default "
                             f"{DEFAULT_MEMORY_BUDGET_SAMPLES}); larger series "
                             "spill to per-pair scratch files")
    ingest.add_argument("--min-samples", type=_positive_int, default=2,
                        help="skip pairs with fewer distinct-timestamp samples "
                             "than this (recorded in the manifest; default 2)")
    ingest.add_argument("--trace-format", choices=TRACE_FORMATS, default="rcb",
                        help="per-pair trace file format of the ingested fleet "
                             "(default rcb; csv is human-readable)")
    ingest.add_argument("--on-error", choices=["raise", "quarantine"], default="raise",
                        help="'raise' (default) aborts on the first malformed line; "
                             "'quarantine' skips malformed lines, ingests every "
                             "healthy update and records the skipped line numbers "
                             "in the manifest")
    ingest.add_argument("--workers", type=_positive_int, default=1,
                        help="parse the dump in N parallel worker processes, "
                             "routing updates to N shards by a stable hash of "
                             "their (metric, device) key; the output directory "
                             "is byte-identical to --workers 1 (default: 1, "
                             "serial). Each shard gets --memory-budget / N")

    store_cmd = subparsers.add_parser(
        "store",
        help="record-store maintenance (verify published blocks)",
        description="Maintenance commands for a content-addressed record "
                    "store created with 'survey --store' or 'policies "
                    "--store'.")
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify",
        help="re-hash every published block against its recorded digest",
        description="Re-read every published .rcb block in the store and "
                    "compare its sha256 against the digest recorded at "
                    "publication time, reporting any bit-rot, truncation or "
                    "missing files.  Exits non-zero when problems are found.")
    store_verify.add_argument("directory", type=Path, help="record-store directory")

    export_dump = subparsers.add_parser(
        "export-dump",
        help="fabricate a raw monitoring export from a synthetic fleet",
        description="Write a synthetic fleet as a raw monitoring export -- the "
                    "kind of file 'ingest' consumes -- for demos, tests and "
                    "benchmarks.  gNMI dumps interleave all pairs' updates in "
                    "global time order; SNMP dumps tabulate one row per "
                    "(poll, device).")
    export_dump.add_argument("path", type=Path, help="destination dump file")
    export_dump.add_argument("--format", choices=list(EXPORT_FORMATS),
                             default=GNMI_FORMAT,
                             help=f"wire format to emit (default {GNMI_FORMAT})")
    export_dump.add_argument("--pairs", type=int, default=56,
                             help="number of (metric, device) pairs to export")
    export_dump.add_argument("--seed", type=int, default=7, help="dataset seed")
    export_dump.add_argument("--duration-hours", type=float, default=24.0,
                             help="trace length in hours (default 24, the paper's "
                                  "one day per pair)")

    windowed = subparsers.add_parser(
        "windowed", help="fleet-wide moving-window Nyquist sweep (Figure 7 at scale)")
    windowed.add_argument("--pairs", type=int, default=56,
                          help="number of (metric, device) pairs to sweep")
    windowed.add_argument("--seed", type=int, default=7, help="dataset seed")
    windowed.add_argument("--window-hours", type=float, default=6.0,
                          help="moving window length in hours (paper: 6)")
    windowed.add_argument("--step-minutes", type=float, default=5.0,
                          help="moving window step in minutes (paper: 5)")
    windowed.add_argument("--limit-per-metric", type=_non_negative_int, default=None,
                          help="cap the number of pairs swept per metric")

    adaptive = subparsers.add_parser("adaptive",
                                     help="run the adaptive controller on a temperature trace")
    adaptive.add_argument("--metric", default="Temperature", choices=sorted(METRIC_CATALOG))
    adaptive.add_argument("--days", type=float, default=3.0, help="trace length in days")
    adaptive.add_argument("--window-hours", type=float, default=6.0,
                          help="adaptation window in hours")
    adaptive.add_argument("--seed", type=int, default=42)

    estimate = subparsers.add_parser("estimate",
                                     help="estimate the Nyquist rate of a CSV trace")
    estimate.add_argument("path", type=Path, help="CSV file with timestamp,value columns")
    estimate.add_argument("--energy-fraction", type=float, default=0.99)

    return parser


# ----------------------------------------------------------------------
def _print_quarantined(count: int, failures: list, limit: int = 10) -> None:
    """Print a survey's quarantine section (nothing when the run was clean)."""
    if not count:
        return
    print(f"\nQuarantined {count} pair(s) (--on-error quarantine):")
    for failure in failures[:limit]:
        print(f"  {failure.metric_name} @ {failure.device_id} "
              f"[{failure.stage}] {failure.error_type}: {failure.message}")
    if count > limit:
        print(f"  ... and {count - limit} more")


def _record_sinks(args: argparse.Namespace) -> tuple[SpillingRecordSink | None,
                                                     SpillingRecordSink | None,
                                                     RecordStore | None]:
    """A survey run's block sink, quarantine sink and record store, from its options."""
    sink = SpillingRecordSink(args.spill_dir) if args.spill_dir is not None else None
    failure_sink = (SpillingRecordSink(args.spill_dir / "failures")
                    if args.spill_dir is not None and args.on_error == "quarantine"
                    else None)
    store = RecordStore(args.store) if args.store is not None else None
    return sink, failure_sink, store


def _print_spill_footer(spill_dir: Path | None, result) -> None:
    """Print where a run spilled its record chunks (nothing without ``--spill-dir``)."""
    if spill_dir is not None:
        print(f"\nRecord chunks spilled to {spill_dir} "
              f"({len(result.sink.files)} rcb files)")


def _command_survey(args: argparse.Namespace) -> int:
    if args.from_dir is not None:
        dataset = MeasuredFleetDataset(args.from_dir)
        print(f"Surveying measured fleet from {args.from_dir} "
              f"({len(dataset)} recorded pairs)\n")
    else:
        dataset = FleetDataset(DatasetConfig(pair_count=args.pairs, seed=args.seed))
    estimator = NyquistEstimator(energy_fraction=args.energy_fraction)
    sink, failure_sink, store = _record_sinks(args)
    result = run_survey(dataset, estimator=estimator,
                        limit_per_metric=args.limit_per_metric,
                        workers=args.workers, fft_workers=args.fft_workers,
                        chunk_size=args.chunk_size, sink=sink,
                        on_error=args.on_error, failure_sink=failure_sink,
                        store=store)

    print(f"Surveyed {len(result)} metric-device pairs "
          f"({len(result.metrics())} metrics)\n")
    print("Figure 1 -- fraction of devices sampled above the Nyquist rate:")
    print(ascii_bar_chart(result.oversampled_fraction_by_metric(), maximum=1.0))
    print()

    print("Figure 5 -- Nyquist rate per metric (Hz):")
    rows = []
    for metric in result.metrics():
        stats = box_stats(result.nyquist_rates(metric))
        row = {"metric": metric}
        row.update(stats.as_dict())
        rows.append(row)
    print(format_table(rows, ["metric", "min", "p25", "median", "p75", "max", "count"]))
    print()

    print("Headline statistics (cf. Section 3.2):")
    headline_rows = [{"statistic": key, "value": value}
                     for key, value in result.headline().items()]
    print(format_table(headline_rows))
    _print_quarantined(result.quarantined_count, result.quarantined)
    _print_store_summary(store, args.store, result)

    if args.csv_dir is not None:
        write_csv(args.csv_dir / "figure1_oversampled_fraction.csv",
                  [{"metric": metric, "fraction": fraction}
                   for metric, fraction in result.oversampled_fraction_by_metric().items()])
        write_csv(args.csv_dir / "figure5_nyquist_rates.csv", rows)
        ratio_rows = [{"metric": record.metric_name, "device": record.device_id,
                       "reduction_ratio": record.reduction_ratio}
                      for record in result.records if record.reliable]
        write_csv(args.csv_dir / "figure4_reduction_ratios.csv", ratio_rows)
        print(f"\nCSV series written under {args.csv_dir}")
    _print_spill_footer(args.spill_dir, result)
    return 0


def _print_store_summary(store, directory, result) -> None:
    """Print one run's record-store hit/miss line (nothing without a store)."""
    if store is None:
        return
    total = result.cache_hits + result.cache_misses
    percent = 100.0 * result.cache_hits / total if total else 0.0
    print(f"\nRecord store {directory}: {result.cache_hits} pair(s) served from "
          f"cache, {result.cache_misses} recomputed ({percent:.0f}% hits)")


def _check_window_fits(trace: str, trace_hours: float, window: str, window_hours: float) -> None:
    """Reject a trace shorter than one adaptation window, named by its options."""
    if 0 < trace_hours < window_hours:
        raise ValueError(f"{trace} is shorter than one {window} {window_hours:g} window; the "
                         "adaptive controller samples whole windows only and would collect "
                         "nothing")


def _command_policies(args: argparse.Namespace) -> int:
    default_oversample = 1.0 if args.from_dir is not None else 4.0
    oversample = args.oversample if args.oversample is not None else default_oversample
    # Built first, so a bad oversample or window option fails before any trace loads.
    suite = PolicySuite(production_oversample=oversample,
                        calibration_fraction=args.calibration_fraction,
                        adaptive_window=args.adaptive_window_hours * 3600.0)
    if args.from_dir is not None:
        source = MeasuredFleetDataset(args.from_dir)
        hours = source.trace_duration / 3600.0
        _check_window_fits(f"the {hours:g} h trace of --from-dir {args.from_dir}", hours,
                           "--adaptive-window-hours", args.adaptive_window_hours)
        accountant = TelemetryCostAccountant()
        print(f"Evaluating policies on measured fleet from {args.from_dir} "
              f"({len(source)} recorded pairs)\n")
    else:
        _check_window_fits(f"--duration-hours {args.duration_hours:g}", args.duration_hours,
                           "--adaptive-window-hours", args.adaptive_window_hours)
        spec = DeploymentSpec(
            topology=TopologySpec(num_spines=args.spines, num_leaves=args.leaves,
                                  servers_per_leaf=args.servers_per_leaf),
            trace_duration=args.duration_hours * 3600.0,
            seed=args.seed,
            oversample_factor=oversample)
        source = spec.open()
        accountant = source.accountant()
        print("Deployed monitoring on a "
              f"{len(source.topology)}-node leaf-spine fabric "
              f"({len(source)} measurement points, collector at {source.collector})\n")
    if args.metrics is not None:
        unknown = sorted(set(args.metrics) - set(source.metric_names()))
        if not args.metrics or unknown:
            raise ValueError(
                f"{'--metrics needs at least one name' if not args.metrics else f'unknown metrics {unknown}'}; "
                f"this fleet serves {source.metric_names()}")
    sink, failure_sink, store = _record_sinks(args)
    result = run_policy_survey(source, suite, accountant=accountant,
                               metrics=args.metrics,
                               limit_per_metric=args.limit_per_metric,
                               chunk_size=args.chunk_size, workers=args.workers,
                               sink=sink, on_error=args.on_error,
                               failure_sink=failure_sink, store=store)

    points = len(result) // max(len(result.policies()), 1)
    print(f"Evaluated {len(result.policies())} policies on {points} "
          f"(metric, device) pairs ({len(result.metrics())} metrics)\n")
    rows = result.rows()
    print("Cost vs quality per policy (cf. the paper's title):")
    print(format_table(rows))
    print()
    try:
        relative = result.relative_costs("fixed")
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print("Total monitoring cost relative to the fixed-rate baseline:")
    for policy, fraction in relative.items():
        print(f"  {policy:22s} {fraction:.2f}x")
    _print_quarantined(result.quarantined_count, result.quarantined)
    _print_store_summary(store, args.store, result)
    if args.csv_dir is not None:
        for row, fraction in zip(rows, relative.values()):
            row["cost_vs_fixed"] = fraction
        write_csv(args.csv_dir / "policy_cost_quality.csv", rows)
        print(f"\nCSV written under {args.csv_dir}")
    _print_spill_footer(args.spill_dir, result)
    return 0


def _command_export_fleet(args: argparse.Namespace) -> int:
    dataset = FleetDataset(DatasetConfig(pair_count=args.pairs, seed=args.seed))
    manifest_path = export_traces(dataset, args.directory, fmt=args.trace_format)
    print(f"Exported {len(dataset)} metric-device pairs "
          f"({len(dataset.metric_names())} metrics) to {args.directory}")
    print(f"  manifest: {manifest_path}")
    print(f"  traces:   {len(dataset)} {args.trace_format} files under "
          f"{args.directory / 'traces'}")
    print(f"\nSurvey the recording with:  repro-monitor survey --from-dir {args.directory}")
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    import json

    fmt = None if args.format == "auto" else args.format
    dump = open_export(args.dump, fmt)
    print(f"Ingesting {dump.format} export {dump.path} "
          f"(memory budget {args.memory_budget} samples, "
          f"~{args.memory_budget * 16 / 2 ** 20:.1f} MiB)...")
    dataset = ingest_dump(dump, args.directory,
                          memory_budget_samples=args.memory_budget,
                          min_samples=args.min_samples,
                          trace_format=args.trace_format,
                          on_error=args.on_error,
                          workers=args.workers)
    manifest = json.loads((args.directory / "manifest.json").read_text())
    summary = manifest["ingest"]
    stats = dataset.ingest_stats
    assert stats is not None  # always attached by ingest_dump
    print(f"Ingested {len(dataset)} (metric, device) pairs "
          f"({len(dataset.metric_names())} metrics) from "
          f"{summary['updates']} updates into {args.directory}")
    if stats.workers > 1:
        print(f"  sharded ingest: {stats.workers} workers over {stats.ranges} "
              f"byte range(s), {len(stats.shards)} shards "
              f"(per-shard budget {stats.shards[0].memory_budget_samples} samples)")
    print(f"  peak in-memory accumulator: {stats.peak_buffered_samples} samples "
          f"(budget {stats.memory_budget_samples}); "
          f"{stats.spilled_samples} samples spilled to scratch in "
          f"{stats.spill_writes} per-pair segments")
    if summary["pairs_skipped"]:
        print(f"  skipped {len(summary['pairs_skipped'])} pairs below "
              f"--min-samples {args.min_samples}:")
        for entry in summary["pairs_skipped"]:
            print(f"    {entry['metric']} @ {entry['device']}: {entry['skipped']}")
    if summary.get("quarantined_lines"):
        lines = summary["quarantined_lines"]
        shown = ", ".join(str(line) for line in lines[:10])
        more = f", ... and {len(lines) - 10} more" if len(lines) > 10 else ""
        print(f"  quarantined {len(lines)} malformed line(s) "
              f"(--on-error quarantine): {shown}{more}")
    resampled = sum(1 for entry in manifest["pairs"] if entry["ingest"]["resampled"])
    if resampled:
        print(f"  {resampled} pairs had irregular timestamps and were re-sampled "
              "onto their dominant interval")
    print("\nSurvey the ingested fleet with:  repro-monitor survey --from-dir "
          f"{args.directory}")
    return 0


def _command_export_dump(args: argparse.Namespace) -> int:
    dataset = FleetDataset(DatasetConfig(pair_count=args.pairs, seed=args.seed,
                                         trace_duration=args.duration_hours * 3600.0))
    if args.format == GNMI_FORMAT:
        export_gnmi_dump(dataset, args.path)
    else:
        export_snmp_dump(dataset, args.path)
    print(f"Exported {len(dataset)} metric-device pairs "
          f"({len(dataset.metric_names())} metrics) as a {args.format} dump:")
    print(f"  {args.path}: {args.path.stat().st_size / 2 ** 20:.1f} MiB")
    print(f"\nIngest it with:  repro-monitor ingest {args.path} FLEET_DIR")
    return 0


def _command_windowed(args: argparse.Namespace) -> int:
    dataset = FleetDataset(DatasetConfig(pair_count=args.pairs, seed=args.seed))
    summaries = run_windowed_survey(dataset,
                                    window_seconds=args.window_hours * 3600.0,
                                    step_seconds=args.step_minutes * 60.0,
                                    limit_per_metric=args.limit_per_metric)
    print(f"Windowed sweep over {len(summaries)} metric-device pairs "
          f"({args.window_hours:g} h window, {args.step_minutes:g} min step)\n")
    rows = [{"metric": s.metric_name, "device": s.device_id, "windows": s.windows,
             "reliable": s.reliable_windows, "min_hz": s.min_rate, "max_hz": s.max_rate,
             "dynamic_range": s.dynamic_range, "drifting": s.drifting}
            for s in summaries]
    print(format_table(rows))
    swept = [s for s in summaries if s.windows > 0]
    drifting = sum(s.drifting for s in swept)
    if swept:
        print(f"\n{drifting} of {len(swept)} swept pairs drift by more than 2x "
              "(cf. Figure 7: a fixed rate cannot serve them)")
    return 0


def _command_adaptive(args: argparse.Namespace) -> int:
    spec = METRIC_CATALOG[args.metric]
    device = DeviceProfile(device_id="demo-device", role=DeviceRole.TOR_SWITCH, seed=args.seed)
    duration = args.days * 86400.0
    _check_window_fits(f"--days {args.days:g}", args.days * 24.0,
                       "--window-hours", args.window_hours)
    params = draw_metric_parameters(spec, device, duration, broadband_fraction=0.0,
                                    rng=np.random.default_rng(args.seed))
    reference = generate_trace(spec, params, duration, interval=spec.poll_interval / 4.0,
                               rng=np.random.default_rng(args.seed))

    controller = AdaptiveSamplingController(ControllerConfig(
        initial_rate=spec.poll_rate / 8.0, max_rate=reference.sampling_rate))
    run = controller.run(reference, window_duration=args.window_hours * 3600.0)

    baseline_samples = int(duration / spec.poll_interval)
    print(f"Metric: {spec.name} ({spec.units}); trace of {args.days:g} days")
    print(f"Existing system samples every {spec.poll_interval:g}s -> {baseline_samples} samples")
    print(f"Adaptive controller collected {run.total_samples_collected} samples "
          f"({run.cost_reduction:.1f}x fewer than the reference trace)")
    rows = [{"window_start_h": decision.window_start / 3600.0,
             "mode": decision.mode.value,
             "rate_hz": decision.sampling_rate,
             "nyquist_estimate_hz": decision.nyquist_estimate,
             "aliased": decision.aliased}
            for decision in run.decisions]
    print()
    print("Per-window decisions (cf. Figure 7):")
    print(format_table(rows))

    round_trip = nyquist_round_trip(reference)
    print()
    print(f"One-shot Nyquist round trip: rate {round_trip.estimate.nyquist_rate:.3e} Hz, "
          f"keeping {len(round_trip.downsampled)} of {len(reference)} samples, "
          f"NRMSE {round_trip.error.nrmse:.4f}")
    return 0


def _read_trace_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The finite ``timestamp,value`` rows of a csv trace; ``ValueError`` names the line."""
    timestamps = []
    values = []
    try:
        handle = path.open()
    except OSError as error:
        raise ValueError(f"cannot read {path}: {error}") from error
    with handle:
        for line_number, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].strip().lower() in ("timestamp", "time", "t"):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}, line {line_number}: expected two columns "
                                 f"(timestamp,value), got {len(row)}")
            try:
                timestamp, value = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(f"{path}, line {line_number}: could not parse "
                                 f"{row[:2]!r} as numeric timestamp,value") from None
            if not (math.isfinite(timestamp) and math.isfinite(value)):
                raise ValueError(f"{path}, line {line_number}: timestamp and value "
                                 f"must be finite, got {row[:2]!r}")
            timestamps.append(timestamp)
            values.append(value)
    if len(values) < 2:
        raise ValueError(f"{path}: need at least two samples")
    return np.array(timestamps), np.array(values)


def _command_estimate(args: argparse.Namespace) -> int:
    timestamps, values = _read_trace_csv(args.path)
    series = IrregularTimeSeries(timestamps, values, name=str(args.path))
    estimate = estimate_nyquist_rate(series, energy_fraction=args.energy_fraction)
    print(f"samples:          {len(values)}")
    print(f"current rate:     {estimate.current_rate:.6g} Hz")
    if estimate.reliable:
        print(f"nyquist rate:     {estimate.nyquist_rate:.6g} Hz")
        print(f"reduction ratio:  {estimate.reduction_ratio:.3g}x")
    else:
        print(f"nyquist rate:     unreliable ({estimate.reason})")
    return 0


def _command_store(args: argparse.Namespace) -> int:
    # Only 'verify' exists today; argparse enforces store_command.
    store = RecordStore(args.directory)
    verification = store.verify()
    print(f"Record store {args.directory}: {verification.entries} entr"
          f"{'y' if verification.entries == 1 else 'ies'}, "
          f"{verification.blocks} block file(s) re-hashed")
    for note in verification.unverified:
        print(f"  unverified: {note}")
    if verification.problems:
        print(f"BIT ROT: {len(verification.problems)} problem(s) found:",
              file=sys.stderr)
        for problem in verification.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("All published blocks match their recorded digests.")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "survey": _command_survey,
        "policies": _command_policies,
        "export-fleet": _command_export_fleet,
        "ingest": _command_ingest,
        "export-dump": _command_export_dump,
        "windowed": _command_windowed,
        "adaptive": _command_adaptive,
        "estimate": _command_estimate,
        "store": _command_store,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
        return code
    except (ValueError, BatchExecutionError) as error:
        # Bad parameters (``--pairs 0``), malformed or corrupt input named by
        # file and line (possibly wrapped with its batch spec by a pooled
        # run), a used destination or spill directory: one line, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left (``| head -1``): exit 1 without a traceback, and
        # send the unflushed rest to devnull so shutdown's flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
