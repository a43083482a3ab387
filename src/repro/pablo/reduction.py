"""Trace transformation utilities.

Pablo's analysis environment let users "interactively connect and
configure a data analysis graph" of transformation modules.  These
functions are the programmatic equivalents: filter, sort, group, and
merge operations over traces that the higher-level analyses compose.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List

import numpy as np

from repro.errors import TraceError
from repro.pablo.records import IOEvent
from repro.pablo.tracer import COLUMNS, Trace


def filter_events(trace: Trace, predicate: Callable[[IOEvent], bool]) -> Trace:
    """Events of ``trace`` satisfying ``predicate`` (alias of select)."""
    return trace.select(predicate)


def sort_events(trace: Trace, key: Callable[[IOEvent], object]) -> List[IOEvent]:
    """Events sorted by an arbitrary key (e.g. duration, size)."""
    return sorted(trace.events, key=key)


def group_by(
    trace: Trace, key: Callable[[IOEvent], Hashable]
) -> Dict[Hashable, Trace]:
    """Partition a trace into sub-traces by a key function.

    >>> # group_by(trace, lambda e: e.node) -> per-node traces
    """
    buckets: Dict[Hashable, List[IOEvent]] = {}
    for event in trace.events:
        buckets.setdefault(key(event), []).append(event)
    return {k: Trace(v, trace.meta) for k, v in buckets.items()}


def merge_traces(traces: Iterable[Trace]) -> Trace:
    """Merge several traces into one time-ordered trace.

    Metadata is taken from the first trace; merging traces from
    different applications is allowed (workload-level analyses) but
    the node spaces must be disjoint or identical by construction —
    the caller is responsible for rank remapping.
    """
    traces = list(traces)
    if not traces:
        raise TraceError("cannot merge zero traces")
    merged = [
        np.concatenate([t.column(name) for t in traces])
        for name in COLUMNS
    ]
    return Trace.from_columns(
        *merged, meta=traces[0].meta, sort=True, validate=False
    )


def remap_nodes(trace: Trace, offset: int) -> Trace:
    """Shift every event's node id by ``offset`` (pre-merge helper)."""
    columns = [trace.column(name) for name in COLUMNS]
    columns[0] = columns[0] + offset
    # A uniform shift cannot change the (start, node) order.
    return Trace.from_columns(
        *columns, meta=trace.meta, sort=False, validate=True
    )
