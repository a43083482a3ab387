"""Text rendering of the paper's tables.

Renders operation-time breakdowns (Tables 2/5), execution-fraction
tables (Table 3), node-activity/mode tables (Tables 1/4), and version
comparisons in the same row layout the paper uses, so the benchmark
harness output can be read side-by-side with the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.breakdown import OperationBreakdown
from repro.core.evolution import VersionComparison
from repro.pablo.records import TABLE_OP_ORDER, IOOp


def render_breakdown_table(
    breakdowns: Dict[str, OperationBreakdown],
    title: str = "",
    reference: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Render Tables 2/5: one column per version, one row per op.

    ``reference`` optionally supplies the paper's numbers per
    ``version -> op -> percent``; when given, each cell shows
    ``measured (paper)``.
    """
    versions = list(breakdowns)
    width = 18 if reference else 9
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'Operation':<10}" + "".join(f"{v:>{width}}" for v in versions)
    lines.append(header)
    lines.append("-" * len(header))
    for op in TABLE_OP_ORDER:
        if all(b.totals.get(op, 0.0) == 0.0 for b in breakdowns.values()):
            ref_has = reference and any(
                reference.get(v, {}).get(op.value) for v in versions
            )
            if not ref_has:
                continue
        row = f"{op.value:<10}"
        for v in versions:
            measured = breakdowns[v].percent(op)
            if reference:
                paper = reference.get(v, {}).get(op.value)
                paper_s = f"{paper:.2f}" if paper is not None else "--"
                row += f"{measured:>9.2f} ({paper_s:>6})"
            else:
                row += f"{measured:>9.2f}"
        lines.append(row)
    return "\n".join(lines)


def render_fraction_table(
    rows: Dict[str, Dict[str, float]],
    title: str = "",
    reference: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Render Table 3: ``version -> op -> % of execution time``."""
    versions = list(rows)
    all_ops: List[str] = []
    for v in versions:
        for op in rows[v]:
            if op not in all_ops:
                all_ops.append(op)
    width = 18 if reference else 9
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'Operation':<10}" + "".join(f"{v:>{width}}" for v in versions)
    lines.append(header)
    lines.append("-" * len(header))
    for op in all_ops:
        row = f"{op:<10}"
        for v in versions:
            measured = rows[v].get(op, 0.0)
            if reference:
                paper = reference.get(v, {}).get(op)
                paper_s = f"{paper:.2f}" if paper is not None else "--"
                row += f"{measured:>9.2f} ({paper_s:>6})"
            else:
                row += f"{measured:>9.2f}"
        lines.append(row)
    return "\n".join(lines)


def render_comparison(comparison: VersionComparison, title: str = "") -> str:
    """Narrative summary of a cross-version comparison."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"versions: {' -> '.join(comparison.versions)}"
    )
    lines.append(
        f"execution time reduction: {comparison.exec_time_reduction:.1%}"
    )
    for v in comparison.versions:
        lines.append(
            f"  {v}: wall={comparison.wall_times[v]:.1f}s  "
            f"I/O={comparison.io_fractions[v]:.2%} of exec  "
            f"dominant={comparison.dominant_ops[v].value}  "
            f"small reads={comparison.small_read_fraction[v]:.0%}  "
            f"modes={','.join(comparison.modes_used[v])}"
        )
    return "\n".join(lines)


def mode_table_cell(
    result,
    phase: str,
    ops: Sequence[IOOp],
    all_label: str,
    suffix: Optional[str] = None,
) -> str:
    """One Table 1/4 cell, ``"activity / modes"``: which nodes issued
    ``ops`` in ``phase`` (on paths ending in ``suffix``, if given) and
    under which access modes, from the run's trace."""
    trace = result.trace
    # A few compares beat np.isin on a small op list.
    mask = np.zeros(len(trace), dtype=bool)
    for op in ops:
        mask |= trace.op_mask(op)
    mask &= trace.equals("phase", phase)
    if suffix is not None:
        # One endswith per distinct path, then a lookup per record.
        ends = np.array([p.endswith(suffix) for p in trace.table("path")],
                        dtype=bool)
        mask &= ends[trace.codes("path")]
    # Node ids are validated non-negative.
    nodes = np.flatnonzero(np.bincount(trace.column("node")[mask]))
    modes = trace.present("mode", mask)
    activity = (
        all_label if len(nodes) > result.n_nodes // 2
        else "Node zero" if nodes.tolist() == [0]
        else f"{len(nodes)} nodes"
    )
    return f"{activity} / {'+'.join(modes)}"


def render_mode_table(
    rows: Sequence[Sequence[str]], headers: Sequence[str], title: str = ""
) -> str:
    """Render Tables 1/4 (node activity and file access modes)."""
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
