"""Regeneration of the paper's PRISM tables (4 and 5)."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.breakdown import OperationBreakdown, io_time_breakdown
from repro.core.report import (
    mode_table_cell,
    render_breakdown_table,
    render_mode_table,
)
from repro.experiments import reference
from repro.experiments.runner import prism_result
from repro.pablo import IOOp


def table4(fast: bool = False) -> Tuple[list, str]:
    """Table 4: PRISM node activity and access modes, observed from
    traces, split by input file in phase one as the paper does."""
    phase_files = [
        ("Phase One (P)", "phase-1-init", "prism.rea"),
        ("Phase One (R)", "phase-1-init", "prism.rst"),
        ("Phase One (C)", "phase-1-init", "prism.cnn"),
        ("Phase Two", "phase-2-integration", None),
        ("Phase Three", "phase-3-postprocessing", None),
    ]
    rows = []
    observed: Dict[str, Dict[str, str]] = {}
    for version in ("A", "B", "C"):
        result = prism_result(version, fast=fast)
        for label, phase, fname in phase_files:
            observed.setdefault(label, {})[version] = mode_table_cell(
                result, phase, (IOOp.READ, IOOp.WRITE), "All", fname
            )
    for label, _, _ in phase_files:
        rows.append([
            label,
            observed[label]["A"],
            observed[label]["B"],
            observed[label]["C"],
        ])
    text = render_mode_table(
        rows,
        headers=["", "Version A", "Version B", "Version C"],
        title="Table 4: PRISM node activity and file access modes "
              "(observed from traces)",
    )
    return rows, text


def table5(fast: bool = False) -> Tuple[Dict[str, OperationBreakdown], str]:
    """Table 5: PRISM % of total I/O time per operation type."""
    breakdowns = {
        v: io_time_breakdown(prism_result(v, fast=fast).trace)
        for v in ("A", "B", "C")
    }
    text = render_breakdown_table(
        breakdowns,
        title="Table 5: PRISM aggregate I/O time breakdown, "
              "measured (paper)",
        reference=reference.TABLE5_PRISM,
    )
    return breakdowns, text
