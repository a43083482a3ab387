"""Pablo-style I/O instrumentation and trace analysis toolkit.

Models the extended Pablo performance environment the paper used
(section 3.1):

- :mod:`~repro.pablo.records` — I/O event records (time, duration,
  size, operation, node, file).
- :mod:`~repro.pablo.tracer` — the data-capture library that the PFS
  client invokes on every operation.
- :mod:`~repro.pablo.sddf` — a self-describing trace file format
  (SDDF-like) for persisting and reloading traces.
- :mod:`~repro.pablo.colfile` — binary column files derived from SDDF
  traces, which reload without a parse (the run cache keeps both).
- :mod:`~repro.pablo.lifetime` — file lifetime summaries.
- :mod:`~repro.pablo.timewindow` — time window summaries.
- :mod:`~repro.pablo.region` — file region summaries.
- :mod:`~repro.pablo.reduction` — trace transformation utilities (the
  "data analysis graph" building blocks).
"""

from repro.pablo.counters import FileCounters, derive_counters, render_counters
from repro.pablo.records import IOEvent, IOOp, TABLE_OP_ORDER, TraceMeta
from repro.pablo.tracer import Trace, Tracer
from repro.pablo.sddf import read_sddf, write_sddf
from repro.pablo.lifetime import FileLifetimeSummary, file_lifetime_summaries
from repro.pablo.timewindow import TimeWindowSummary, time_window_summaries
from repro.pablo.region import FileRegionSummary, file_region_summaries
from repro.pablo.reduction import (
    filter_events,
    group_by,
    merge_traces,
    sort_events,
)

__all__ = [
    "IOEvent",
    "IOOp",
    "TABLE_OP_ORDER",
    "TraceMeta",
    "Trace",
    "Tracer",
    "read_sddf",
    "write_sddf",
    "FileLifetimeSummary",
    "file_lifetime_summaries",
    "TimeWindowSummary",
    "time_window_summaries",
    "FileRegionSummary",
    "file_region_summaries",
    "FileCounters",
    "derive_counters",
    "render_counters",
    "filter_events",
    "group_by",
    "merge_traces",
    "sort_events",
]
