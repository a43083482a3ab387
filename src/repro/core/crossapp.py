"""Cross-application comparison (the paper's section 6).

Section 6 compares ESCAT and PRISM "across three dimensions: I/O
request size, I/O parallelism, and I/O access modes", contrasting the
codes' *initial* (natural) access patterns with their *optimized*
ones.  :func:`section6_report` computes that comparison from traces
and renders it as the paper narrates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.classify import concurrency_stats, request_classes
from repro.errors import AnalysisError
from repro.pablo import IOOp
from repro.pablo.tracer import Trace
from repro.units import KB


@dataclass
class AccessPatternProfile:
    """One application version along the paper's three dimensions."""

    application: str
    version: str
    #: Request-size dimension.
    small_read_fraction: float
    large_read_data_fraction: float
    small_write_fraction: float
    #: Parallelism dimension.
    active_nodes: int
    coordinator_share: float
    peak_concurrency: int
    #: Access-mode dimension.
    modes_used: List[str]
    serialized_data_fraction: float

    @property
    def node_zero_coordinated(self) -> bool:
        """Most data operations funnel through one node."""
        return self.coordinator_share > 0.5


def profile_trace(
    trace: Trace,
    application: str,
    version: str,
    small_threshold: int = 1 * KB,
    large_threshold: int = 128 * KB,
) -> AccessPatternProfile:
    """Profile one version along the three dimensions."""
    if not len(trace):
        raise AnalysisError("cannot profile an empty trace")
    reads = request_classes(trace, IOOp.READ, small_threshold, large_threshold)
    writes = request_classes(trace, IOOp.WRITE, small_threshold, large_threshold)
    conc = concurrency_stats(trace)
    data = trace.data_events()
    serialized = (
        int((data.column("mode") == "M_UNIX").sum()) / len(data)
        if len(data) else 0.0
    )
    return AccessPatternProfile(
        application=application,
        version=version,
        small_read_fraction=reads.small_count_fraction,
        large_read_data_fraction=reads.large_data_fraction,
        small_write_fraction=writes.small_count_fraction,
        active_nodes=conc.active_nodes,
        coordinator_share=conc.coordinator_share,
        peak_concurrency=conc.peak_concurrency,
        modes_used=trace.modes(),
        serialized_data_fraction=serialized,
    )


@dataclass
class Section6Report:
    """The initial-vs-optimized comparison for both applications."""

    initial: Dict[str, AccessPatternProfile]
    optimized: Dict[str, AccessPatternProfile]

    def shared_initial_characteristics(self) -> List[str]:
        """The commonalities section 6.1 identifies."""
        out = []
        profiles = list(self.initial.values())
        if all(p.small_read_fraction > 0.9 for p in profiles):
            out.append(
                "at least 90% of all reads are small in every initial "
                "version (paper: >= 98% < 1KB)"
            )
        if all(p.small_write_fraction > 0.9 for p in profiles):
            out.append("small writes predominate in every initial version")
        if all(p.modes_used == ["M_UNIX"] for p in profiles):
            out.append("only standard UNIX I/O calls are used")
        if all(
            self.initial[a].serialized_data_fraction == 1.0
            for a in self.initial
        ):
            out.append(
                "every data operation runs under the serializing "
                "default mode"
            )
        return out

    def optimization_effects(self) -> List[str]:
        """The changes section 6.2 identifies."""
        out = []
        for app in self.initial:
            before = self.initial[app]
            after = self.optimized[app]
            if after.small_read_fraction < before.small_read_fraction:
                out.append(
                    f"{app}: small-read fraction fell "
                    f"{before.small_read_fraction:.0%} -> "
                    f"{after.small_read_fraction:.0%}"
                )
            if after.large_read_data_fraction > before.large_read_data_fraction:
                out.append(
                    f"{app}: large reads now carry "
                    f"{after.large_read_data_fraction:.0%} of read data"
                )
            new_modes = set(after.modes_used) - set(before.modes_used)
            if new_modes:
                out.append(
                    f"{app}: adopted {', '.join(sorted(new_modes))}"
                )
        return out

    def render(self) -> str:
        lines = ["Section 6: application comparison",
                 "", "initial access patterns (6.1):"]
        lines += [f"  - {s}" for s in self.shared_initial_characteristics()]
        lines.append("")
        lines.append("optimized access patterns (6.2):")
        lines += [f"  - {s}" for s in self.optimization_effects()]
        lines.append("")
        header = (
            f"{'':24s}{'small reads':>12s}{'large data':>11s}"
            f"{'nodes':>7s}{'coord':>7s}{'modes':>30s}"
        )
        lines.append(header)
        for label, profiles in (("initial", self.initial),
                                ("optimized", self.optimized)):
            for app, p in profiles.items():
                lines.append(
                    f"{app + ' ' + label:24s}"
                    f"{p.small_read_fraction:>11.0%} "
                    f"{p.large_read_data_fraction:>10.0%} "
                    f"{p.active_nodes:>6d} "
                    f"{p.coordinator_share:>6.0%} "
                    f"{','.join(p.modes_used):>30s}"
                )
        return "\n".join(lines)


def section6_report(
    escat_initial: Trace,
    escat_optimized: Trace,
    prism_initial: Trace,
    prism_optimized: Trace,
) -> Section6Report:
    """Build the section-6 comparison from the four traces."""
    return Section6Report(
        initial={
            "ESCAT": profile_trace(escat_initial, "ESCAT", "A"),
            "PRISM": profile_trace(prism_initial, "PRISM", "A"),
        },
        optimized={
            "ESCAT": profile_trace(escat_optimized, "ESCAT", "C"),
            "PRISM": profile_trace(prism_optimized, "PRISM", "C"),
        },
    )
