"""Fault-injection determinism guarantees.

Three invariants, each across both data paths:

1. A run with *no* fault engine and a run with an engine carrying an
   empty plan produce byte-identical SDDF traces — attaching the
   machinery costs nothing observable.
2. A seeded fault plan produces byte-identical SDDF traces under both
   datapaths — faults do not break the simulator's
   cross-implementation equivalence.
3. The chaos report is a pure function of its seed.
"""

import io

import pytest

from repro.apps import run_escat, scaled_escat_problem
from repro.faults import FaultPlan
from repro.pablo.sddf import write_sddf

SEED = 1996

DATAPATHS = ["0", "1"]


def _sddf(monkeypatch, fast_datapath, fault_plan):
    monkeypatch.setenv("REPRO_FAST_DATAPATH", fast_datapath)
    problem = scaled_escat_problem()
    result = run_escat("A", problem, seed=SEED, fault_plan=fault_plan)
    out = io.StringIO()
    write_sddf(result.trace, out)
    return out.getvalue()


@pytest.mark.parametrize("datapath", DATAPATHS)
def test_zero_fault_plan_is_invisible(monkeypatch, datapath):
    bare = _sddf(monkeypatch, datapath, None)
    engined = _sddf(monkeypatch, datapath, FaultPlan())
    assert bare == engined


def test_seeded_plan_identical_across_datapaths(monkeypatch):
    plan = FaultPlan.seeded(seed=7, horizon=66.0, n_io_nodes=16)
    traces = {dp: _sddf(monkeypatch, dp, plan) for dp in DATAPATHS}
    reference = traces["1"]
    assert traces["0"] == reference
    # And it is genuinely a different run from the healthy one.
    assert reference != _sddf(monkeypatch, "1", None)


def test_chaos_report_is_reproducible():
    from repro.experiments.chaos import chaos_report

    first = chaos_report(seed=11, classes=["slowdown"])
    second = chaos_report(seed=11, classes=["slowdown"])
    assert first.format() == second.format()
    assert first.baseline_ranking == second.baseline_ranking


def test_chaos_report_breaks_retries_down_by_class():
    from repro.experiments.chaos import ChaosCell, ChaosReport, ChaosRow

    report = ChaosReport(
        app="escat", seed=1, baseline_ranking=("A",),
        baseline_walls={"A": 10.0}, baseline_quantiles={"A": ()},
    )
    report.rows.append(ChaosRow(
        fault_class="crash", plan_lines="(plan)",
        cells=[ChaosCell(
            version="A", completed=True, wall_time=12.0,
            fault_summary={
                "retries": 3,
                "retries_by_class": {"crash": 2, "network": 1},
                "backoff_s": 0.35,
                "messages_lost": 1,
                "wb_lost": 0,
            },
        )],
    ))
    text = report.format()
    assert "retries 3 (crash 2, network 1) backoff 0.350s" in text
