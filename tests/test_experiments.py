"""Tests for the experiment harness (fast mode)."""

import pytest

from repro.errors import AnalysisError
from repro.experiments import (
    EXPERIMENTS,
    clear_cache,
    escat_result,
    list_experiments,
    prism_result,
    run_experiment,
)
from repro.experiments import reference
from repro.pablo.records import TABLE_OP_ORDER


def test_registry_covers_every_table_and_figure():
    ids = list_experiments()
    assert [f"figure{i}" for i in range(1, 10)] == [
        x for x in ids if x.startswith("figure")
    ]
    assert [f"table{i}" for i in range(1, 6)] == [
        x for x in ids if x.startswith("table")
    ]
    for exp in EXPERIMENTS.values():
        assert exp.description


def test_unknown_experiment_rejected():
    with pytest.raises(AnalysisError):
        run_experiment("table99")


def test_run_caching_reuses_results():
    clear_cache()
    r1 = escat_result("C", fast=True)
    r2 = escat_result("C", fast=True)
    assert r1 is r2
    p1 = prism_result("B", fast=True)
    p2 = prism_result("B", fast=True)
    assert p1 is p2
    clear_cache()
    assert escat_result("C", fast=True) is not r1


def test_fast_experiments_render(capsys):
    # A couple of representative experiments end-to-end in fast mode.
    text = run_experiment("table5", fast=True)
    assert "Table 5" in text and "read" in text
    text = run_experiment("figure2", fast=True)
    assert "Figure 2" in text


def test_reference_tables_well_formed():
    for version, rows in reference.TABLE2_ESCAT.items():
        assert version in ("A", "B", "C")
        total = sum(v for v in rows.values() if v)
        assert 95.0 < total < 105.0  # percentages sum to ~100
    for version, rows in reference.TABLE5_PRISM.items():
        total = sum(v for v in rows.values() if v)
        assert 95.0 < total < 105.0
    valid_ops = {op.value for op in TABLE_OP_ORDER}
    for rows in reference.TABLE2_ESCAT.values():
        assert set(rows) <= valid_ops


def test_reference_table3_rows():
    assert reference.TABLE3_ESCAT["ethylene/C"]["All I/O"] == 0.73
    assert reference.TABLE3_ESCAT["carbon-monoxide/C"]["All I/O"] == 19.40


def test_figure_reference_claims_present():
    assert set(reference.FIGURES) == {f"figure{i}" for i in range(1, 10)}
    assert reference.FIGURES["figure6"]["reduction"] == 0.23


def test_run_guarded_folds_generic_exceptions():
    from repro.experiments.runner import run_guarded

    def blows_up():
        return {}["missing"]  # KeyError: not a ReproError

    guarded = run_guarded(blows_up)
    assert not guarded.completed
    assert guarded.error.startswith("KeyError")
    assert "blows_up" in guarded.traceback  # evidence survives the fold
    assert not guarded.timed_out


def test_run_guarded_lets_interrupts_propagate():
    from repro.experiments.runner import run_guarded

    def interrupted():
        raise KeyboardInterrupt()

    with pytest.raises(KeyboardInterrupt):
        run_guarded(interrupted)

    def exits():
        raise SystemExit(3)

    with pytest.raises(SystemExit):
        run_guarded(exits)


def test_concurrent_stores_of_same_run_key(tmp_path):
    # Two workers racing to persist the same run key (exactly what a
    # sweep without driver-side dedup would do) must leave one valid
    # entry: atomic temp-file renames mean no torn reads, and the
    # sidecar-last commit order means no loadable half-entry.
    import io
    import multiprocessing

    from repro.apps import run_escat, scaled_escat_problem
    from repro.experiments import cache
    from repro.pablo.sddf import write_sddf

    problem = scaled_escat_problem(
        n_nodes=2, n_channels=1, records_per_channel=2, n_energies=1,
    )
    result = run_escat("C", problem, seed=4242)
    key = cache.run_key(kind="race-test", seed=4242)

    barrier = multiprocessing.Barrier(2)

    def racer():
        barrier.wait()
        for _ in range(5):
            cache.store(key, result)

    procs = [multiprocessing.Process(target=racer) for _ in range(2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
        assert proc.exitcode == 0

    loaded = cache.load(key)
    assert loaded is not None
    assert len(loaded.trace) == len(result.trace)
    assert loaded.wall_time == result.wall_time
    loaded_out, result_out = io.StringIO(), io.StringIO()
    write_sddf(loaded.trace, loaded_out)
    write_sddf(result.trace, result_out)
    assert loaded_out.getvalue() == result_out.getvalue()


def test_cache_roundtrips_fault_summary():
    from repro.apps import run_escat, scaled_escat_problem
    from repro.experiments import cache
    from repro.faults import FaultPlan
    from repro.machine import MachineConfig

    problem = scaled_escat_problem(
        n_nodes=2, n_channels=1, records_per_channel=2, n_energies=1,
    )
    plan = FaultPlan.seeded(
        seed=7, horizon=50.0,
        n_io_nodes=MachineConfig.caltech().n_io_nodes,
        classes=("slowdown",),
    )
    result = run_escat("C", problem, seed=7, fault_plan=plan)
    assert result.fault_summary is not None
    key = cache.run_key(kind="fault-roundtrip", seed=7)
    cache.store(key, result)
    loaded = cache.load(key)
    assert loaded is not None
    assert loaded.fault_summary == result.fault_summary
