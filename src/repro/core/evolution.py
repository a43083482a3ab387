"""Cross-version evolution comparisons.

The paper's central method: run successive versions of the same code,
compare where the I/O time went, and attribute the changes to access
modes and request structure.  :func:`compare_versions` condenses a set
of (version, trace, wall-time) results into the quantities the paper
discusses — total exec reduction, per-op I/O deltas, dominant-op
shifts, and request-size movement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.breakdown import OperationBreakdown, io_time_breakdown
from repro.core.classify import request_classes
from repro.errors import AnalysisError
from repro.pablo.records import IOOp
from repro.pablo.tracer import Trace


@dataclass
class VersionResult:
    """One code version's run: its trace and wall-clock time."""

    version: str
    trace: Trace
    wall_time: float
    n_nodes: int

    @property
    def io_node_seconds(self) -> float:
        return self.trace.total_io_time

    @property
    def io_fraction_of_exec(self) -> float:
        return self.io_node_seconds / (self.wall_time * self.n_nodes)


@dataclass
class VersionComparison:
    """Everything the paper compares across versions of one code."""

    versions: List[str]
    wall_times: Dict[str, float]
    breakdowns: Dict[str, OperationBreakdown]
    io_fractions: Dict[str, float]
    dominant_ops: Dict[str, IOOp]
    small_read_fraction: Dict[str, float]
    large_read_data_fraction: Dict[str, float]
    modes_used: Dict[str, List[str]]

    @property
    def exec_time_reduction(self) -> float:
        """Fractional wall-time reduction first -> last version."""
        first = self.wall_times[self.versions[0]]
        last = self.wall_times[self.versions[-1]]
        return (first - last) / first if first > 0 else 0.0

    def io_time_change(self, op: IOOp, v_from: str, v_to: str) -> float:
        """Absolute aggregate-time change of ``op`` between versions."""
        a = self.breakdowns[v_from].totals.get(op, 0.0)
        b = self.breakdowns[v_to].totals.get(op, 0.0)
        return b - a


def compare_versions(
    results: Sequence[VersionResult],
    small_threshold: Optional[int] = None,
    large_threshold: Optional[int] = None,
) -> VersionComparison:
    """Build the evolution comparison the paper's section 6 narrates."""
    if len(results) < 2:
        raise AnalysisError("need at least two versions to compare")
    kwargs = {}
    if small_threshold is not None:
        kwargs["small_threshold"] = small_threshold
    if large_threshold is not None:
        kwargs["large_threshold"] = large_threshold

    versions = [r.version for r in results]
    if len(set(versions)) != len(versions):
        raise AnalysisError(f"duplicate version labels in {versions}")

    breakdowns = {}
    io_fractions = {}
    dominant = {}
    small_frac = {}
    large_data = {}
    modes = {}
    wall = {}
    for r in results:
        wall[r.version] = r.wall_time
        b = io_time_breakdown(r.trace)
        breakdowns[r.version] = b
        io_fractions[r.version] = r.io_fraction_of_exec
        dominant[r.version] = b.dominant_op() if b.totals else IOOp.READ
        stats = request_classes(r.trace, IOOp.READ, **kwargs)
        small_frac[r.version] = stats.small_count_fraction
        large_data[r.version] = stats.large_data_fraction
        modes[r.version] = r.trace.modes()
    return VersionComparison(
        versions=versions,
        wall_times=wall,
        breakdowns=breakdowns,
        io_fractions=io_fractions,
        dominant_ops=dominant,
        small_read_fraction=small_frac,
        large_read_data_fraction=large_data,
        modes_used=modes,
    )
