"""Crash-tolerant sweep engine.

A declarative grid (:mod:`grid`) expands deterministically into
points; a pool of worker processes fed from one FIFO queue
(:mod:`scheduler`, :mod:`worker`) executes them through the
content-addressed run cache, surviving worker crashes, per-point
timeouts, and driver death; an
append-only journal (:mod:`journal`) makes ``repro sweep resume`` pick
up after a SIGKILL with zero redundant simulation; and results
aggregate incrementally into a columnar table (:mod:`aggregate`).

See ``docs/sweeps.md`` for the grid-spec format, the journal's resume
contract, and the failure-class semantics.
"""

from repro.experiments.sweep.aggregate import (
    build_table,
    partial_report,
    point_rows,
    render_aggregate,
    status_payload,
    write_aggregate,
)
from repro.experiments.sweep.grid import (
    SweepGrid,
    SweepPoint,
    points_for_specs,
)
from repro.experiments.sweep.journal import (
    JournalState,
    JournalWriter,
    read_journal,
)
from repro.experiments.sweep.probe import PROBE_BEHAVIORS, reset_crash_markers
from repro.experiments.sweep.scheduler import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    SweepOutcome,
    SweepTelemetry,
    WorkerPool,
    resume,
    run_grid,
    run_points,
    status,
)

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "JournalState",
    "JournalWriter",
    "PROBE_BEHAVIORS",
    "SweepGrid",
    "SweepOutcome",
    "SweepPoint",
    "SweepTelemetry",
    "WorkerPool",
    "build_table",
    "partial_report",
    "point_rows",
    "points_for_specs",
    "read_journal",
    "render_aggregate",
    "reset_crash_markers",
    "resume",
    "run_grid",
    "run_points",
    "status",
    "status_payload",
    "write_aggregate",
]
