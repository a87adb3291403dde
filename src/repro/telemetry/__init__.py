"""Synthetic production telemetry: the substitute for the paper's proprietary traces."""

from .dataset import PAPER_PAIR_COUNT, DatasetConfig, FleetDataset, TraceBatch, TracePair
from .fleet import DEFAULT_ROLE_MIX, build_fleet
from .ingest import (EXPORT_FORMATS, GNMI_FORMAT, METRIC_PATHS, SNMP_FORMAT,
                     IngestStats, PairAccumulator, ShardIngestStats,
                     TelemetryDump, UpdateBlock, export_gnmi_dump, export_snmp_dump,
                     ingest_dump, open_export, sniff_format)
from .measured import (MeasuredDevice, MeasuredFleetDataset, MeasuredPair,
                       MeasuredParameters, MeasuredSourceSpec, export_traces)
from .metrics import (FIGURE4_METRICS, FIGURE5_ORDER, METRIC_CATALOG, MetricFamily,
                      MetricSpec)
from .models import generate_trace
from .profiles import DeviceProfile, DeviceRole, MetricParameters, draw_metric_parameters
from .source import BaseTraceSource, TraceSource, WorkerSpec
from .shard import ByteRange, plan_byte_ranges, shard_of_key

__all__ = [
    "DatasetConfig", "FleetDataset", "TracePair", "TraceBatch", "PAPER_PAIR_COUNT",
    "TraceSource", "BaseTraceSource", "WorkerSpec",
    "MeasuredFleetDataset", "MeasuredPair", "MeasuredDevice", "MeasuredParameters",
    "MeasuredSourceSpec", "export_traces",
    "GNMI_FORMAT", "SNMP_FORMAT", "EXPORT_FORMATS", "METRIC_PATHS",
    "TelemetryDump", "UpdateBlock", "PairAccumulator",
    "IngestStats", "ShardIngestStats",
    "ByteRange", "plan_byte_ranges", "shard_of_key",
    "open_export", "sniff_format", "ingest_dump",
    "export_gnmi_dump", "export_snmp_dump",
    "build_fleet", "DEFAULT_ROLE_MIX",
    "METRIC_CATALOG", "MetricSpec", "MetricFamily",
    "FIGURE4_METRICS", "FIGURE5_ORDER",
    "DeviceProfile", "DeviceRole", "MetricParameters", "draw_metric_parameters",
    "generate_trace",
]
