"""Regeneration of the paper's ESCAT tables (1, 2 and 3)."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.breakdown import OperationBreakdown, execution_fraction, io_time_breakdown
from repro.core.report import (
    mode_table_cell,
    render_breakdown_table,
    render_fraction_table,
    render_mode_table,
)
from repro.experiments import reference
from repro.experiments.runner import (
    carbon_monoxide_result,
    escat_result,
)
from repro.pablo import IOOp


def table1(fast: bool = False) -> Tuple[list, str]:
    """Table 1: node activity and file access modes per phase.

    Derived from the *traces* (not the version definitions): for each
    phase we report which nodes issued data operations and under which
    modes — verifying that the workload models actually exercise the
    structure Table 1 describes.
    """
    rows = []
    phase_names = {
        "phase-1-init": "Phase One",
        "phase-2-staging-write": "Phase Two",
        "phase-3-staging-read": "Phase Three",
        "phase-4-results": "Phase Four",
    }
    observed: Dict[str, Dict[str, str]] = {}
    for version in ("A", "B", "C"):
        result = escat_result(version, fast=fast)
        for phase, label in phase_names.items():
            observed.setdefault(label, {})[version] = mode_table_cell(
                result, phase, (IOOp.READ, IOOp.WRITE, IOOp.SEEK), "All Nodes"
            )
    for label in ("Phase One", "Phase Two", "Phase Three", "Phase Four"):
        rows.append([
            label,
            observed[label]["A"],
            observed[label]["B"],
            observed[label]["C"],
        ])
    text = render_mode_table(
        rows,
        headers=["", "Version A", "Version B", "Version C"],
        title="Table 1: ESCAT node activity and file access modes "
              "(observed from traces)",
    )
    return rows, text


def table2(fast: bool = False) -> Tuple[Dict[str, OperationBreakdown], str]:
    """Table 2: ESCAT % of total I/O time per operation type."""
    breakdowns = {
        v: io_time_breakdown(escat_result(v, fast=fast).trace)
        for v in ("A", "B", "C")
    }
    text = render_breakdown_table(
        breakdowns,
        title="Table 2: ESCAT aggregate I/O time breakdown, "
              "measured (paper)",
        reference=reference.TABLE2_ESCAT,
    )
    return breakdowns, text


def table3(fast: bool = False) -> Tuple[Dict[str, Dict[str, float]], str]:
    """Table 3: ESCAT % of total execution time per operation type."""
    rows: Dict[str, Dict[str, float]] = {}
    for v in ("A", "B", "C"):
        result = escat_result(v, fast=fast)
        rows[f"ethylene/{v}"] = execution_fraction(
            result.trace, result.wall_time
        )
    co = carbon_monoxide_result(fast=fast)
    rows["carbon-monoxide/C"] = execution_fraction(co.trace, co.wall_time)
    text = render_fraction_table(
        rows,
        title="Table 3: ESCAT %% of execution time on I/O, "
              "measured (paper)",
        reference=reference.TABLE3_ESCAT,
    )
    return rows, text
