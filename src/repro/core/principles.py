"""File-system design-principle evaluation.

Section 7 of the paper derives design principles from the
characterization: request aggregation, prefetching, write-behind, and
collective operations would relieve applications of manual tuning.
These analyses quantify, from a trace, how much each principle could
help — the inputs to the ablation benchmarks in ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import AnalysisError
from repro.pablo.records import IOOp
from repro.pablo.tracer import Trace
from repro.units import KB


@dataclass
class DesignPrincipleReport:
    """Quantified opportunity for each section-7 design principle."""

    #: Fraction of read requests that are small and sequential with
    #: their predecessor (aggregatable by the file system).
    aggregatable_read_fraction: float
    #: Ditto for writes (write-behind coalescing opportunity).
    aggregatable_write_fraction: float
    #: Fraction of read bytes that were re-read (caching opportunity).
    reread_byte_fraction: float
    #: Fraction of reads whose offset was exactly the previous read's
    #: end on the same (node, file) — perfectly prefetchable.
    prefetchable_read_fraction: float
    #: Fraction of data operations issued under serializing M_UNIX on
    #: shared files (collective-operation opportunity).
    serialized_data_fraction: float
    #: Number of distinct access modes exercised.
    modes_exercised: int

    def summary_lines(self) -> List[str]:
        return [
            f"aggregatable reads:   {self.aggregatable_read_fraction:6.1%}",
            f"aggregatable writes:  {self.aggregatable_write_fraction:6.1%}",
            f"re-read bytes:        {self.reread_byte_fraction:6.1%}",
            f"prefetchable reads:   {self.prefetchable_read_fraction:6.1%}",
            f"serialized data ops:  {self.serialized_data_fraction:6.1%}",
            f"modes exercised:      {self.modes_exercised}",
        ]


def evaluate_principles(
    trace: Trace, small_threshold: int = 2 * KB
) -> DesignPrincipleReport:
    """Evaluate the section-7 design principles against a trace."""
    if small_threshold <= 0:
        raise AnalysisError("small threshold must be positive")
    reads = trace.by_op(IOOp.READ).events
    writes = trace.by_op(IOOp.WRITE).events
    data = trace.data_events()

    agg_reads = _sequential_small_fraction(reads, small_threshold)
    agg_writes = _sequential_small_fraction(writes, small_threshold)
    prefetchable = _sequential_fraction(reads)
    reread = _reread_fraction(reads)
    serialized = 0.0
    if len(data):
        serialized = int(data.equals("mode", "M_UNIX").sum()) / len(data)
    return DesignPrincipleReport(
        aggregatable_read_fraction=agg_reads,
        aggregatable_write_fraction=agg_writes,
        reread_byte_fraction=reread,
        prefetchable_read_fraction=prefetchable,
        serialized_data_fraction=serialized,
        modes_exercised=len(trace.modes()),
    )


def _per_stream(events):
    """Group data events by (node, path), in time order."""
    streams: Dict[tuple, list] = {}
    for e in sorted(events, key=lambda e: e.start):
        if e.offset < 0:
            continue
        streams.setdefault((e.node, e.path), []).append(e)
    return streams


def _sequential_small_fraction(events, small_threshold: int) -> float:
    """Fraction of ops that are small AND contiguous with the previous
    op in the same stream — the aggregation opportunity."""
    total = 0
    hits = 0
    for stream in _per_stream(events).values():
        prev_end = None
        for e in stream:
            total += 1
            if (
                e.nbytes < small_threshold
                and prev_end is not None
                and e.offset == prev_end
            ):
                hits += 1
            prev_end = e.offset + e.nbytes
    return hits / total if total else 0.0


def _sequential_fraction(events) -> float:
    total = 0
    hits = 0
    for stream in _per_stream(events).values():
        prev_end = None
        for e in stream:
            total += 1
            if prev_end is not None and e.offset == prev_end:
                hits += 1
            prev_end = e.offset + e.nbytes
    return hits / total if total else 0.0


def _reread_fraction(reads) -> float:
    """Fraction of read bytes covering a byte read before (any node).

    Uses a per-file interval accounting on a coarse 1 KB granularity to
    stay fast on large traces.
    """
    gran = 1024
    seen: Dict[str, set] = {}
    reread = 0
    total = 0
    for e in sorted(reads, key=lambda e: e.start):
        if e.offset < 0 or e.nbytes == 0:
            continue
        blocks = range(e.offset // gran, (e.offset + e.nbytes - 1) // gran + 1)
        file_seen = seen.setdefault(e.path, set())
        for b in blocks:
            total += 1
            if b in file_seen:
                reread += 1
            else:
                file_seen.add(b)
    return reread / total if total else 0.0
