"""Phase-level I/O classification.

Miller and Katz's taxonomy, which the paper adopts, classifies
application I/O as *compulsory* (required input/output), *checkpoint*
(periodic state saves), and *data staging* (out-of-core scratch
traffic).  Workload models label each traced event with its
application phase; these analyses both summarize labeled phases and
classify unlabeled traces heuristically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.errors import AnalysisError
from repro.pablo.records import IOOp
from repro.pablo.tracer import Trace

#: The Miller/Katz classes.
COMPULSORY = "compulsory"
CHECKPOINT = "checkpoint"
DATA_STAGING = "data-staging"


@dataclass
class PhaseProfile:
    """I/O statistics of one application phase."""

    phase: str
    start: float = float("inf")
    end: float = 0.0
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    io_time: float = 0.0
    nodes: set = field(default_factory=set)

    @property
    def span(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def read_write_ratio(self) -> float:
        """Bytes read per byte written (inf for read-only phases)."""
        if self.bytes_written == 0:
            return float("inf") if self.bytes_read else 0.0
        return self.bytes_read / self.bytes_written

    @property
    def concurrency(self) -> int:
        return len(self.nodes)


def phase_profile(trace: Trace) -> Dict[str, PhaseProfile]:
    """Per-phase profiles from the phase labels on traced events."""
    profiles: Dict[str, PhaseProfile] = {}
    for e in trace.events:
        name = e.phase or "(unlabeled)"
        p = profiles.get(name)
        if p is None:
            p = profiles[name] = PhaseProfile(phase=name)
        p.start = min(p.start, e.start)
        p.end = max(p.end, e.end)
        p.io_time += e.duration
        p.nodes.add(e.node)
        if e.op == IOOp.READ:
            p.reads += 1
            p.bytes_read += e.nbytes
        elif e.op == IOOp.WRITE:
            p.writes += 1
            p.bytes_written += e.nbytes
    return profiles


def classify_phases(trace: Trace, wall_time: float) -> Dict[str, str]:
    """Heuristically assign each labeled phase a Miller/Katz class.

    Rules (mirroring the paper's descriptions):

    - read-dominated activity near the start, or write-dominated
      activity near the end, is *compulsory* I/O;
    - write activity recurring in multiple separated bursts during the
      middle of the run is *checkpoint* I/O;
    - phases that both write and later re-read large volumes are
      *data staging*.
    """
    if wall_time <= 0:
        raise AnalysisError(f"wall time must be positive, got {wall_time}")
    profiles = phase_profile(trace)
    classes: Dict[str, str] = {}

    # Pair up staging phases: a write-heavy phase whose bytes are
    # re-read by a later read-heavy phase of similar volume.
    names = list(profiles)
    staging: set = set()
    for w_name in names:
        w = profiles[w_name]
        if w.bytes_written == 0:
            continue
        for r_name in names:
            r = profiles[r_name]
            if r is w or r.bytes_read == 0 or r.start < w.start:
                continue
            ratio = r.bytes_read / w.bytes_written
            if 0.5 <= ratio <= 2.0 and w.bytes_written > 0:
                staging.add(w_name)
                staging.add(r_name)

    for name, p in profiles.items():
        mid = (p.start + p.end) / 2.0 / wall_time if wall_time else 0.0
        if name in staging:
            classes[name] = DATA_STAGING
        elif p.bytes_read >= p.bytes_written and mid < 0.25:
            classes[name] = COMPULSORY
        elif p.bytes_written > p.bytes_read and mid > 0.75:
            classes[name] = COMPULSORY
        elif p.bytes_written > 0 and _burst_count(trace, name) >= 3:
            classes[name] = CHECKPOINT
        elif p.bytes_written > p.bytes_read:
            classes[name] = CHECKPOINT if 0.25 <= mid <= 0.75 else COMPULSORY
        else:
            classes[name] = COMPULSORY
    return classes


def _burst_count(trace: Trace, phase: str, gap_fraction: float = 0.05) -> int:
    """Number of write bursts within a phase (gap > 5% of phase span)."""
    # Trace columns are start-ordered, so the starts need no sort.
    starts = trace.by_phase(phase).by_op(IOOp.WRITE).column("start")
    if not len(starts):
        return 0
    span = starts[-1] - starts[0]
    if span <= 0:
        return 1
    return 1 + int((np.diff(starts) > span * gap_fraction).sum())
