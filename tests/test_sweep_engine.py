"""Crash-tolerance tests for the sweep engine.

These tests exercise every failure class the engine claims to survive:
worker crash (SIGKILL mid-point), poisoned points (crash every
attempt), per-point timeouts, and driver death (SIGKILL the driver,
then resume from the journal with zero re-simulation).  The box
running the suite may have a single core, so parallelism assertions
are structural (counters, which worker ran which point) rather than
timing-based.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.cli import main
from repro.errors import SweepError
from repro.experiments import sweep
from repro.experiments.sweep.grid import SweepPoint
from repro.experiments.sweep.scheduler import (
    SweepTelemetry,
    WorkerPool,
    _Scheduler,
)


def _probe_points(behaviors, start_seed, **kwargs):
    return [
        SweepPoint(index=i, kind="probe", version=behavior,
                   seed=start_seed + i, **kwargs)
        for i, behavior in enumerate(behaviors)
    ]


# -- grid specs ----------------------------------------------------------

def test_grid_expansion_is_deterministic():
    spec = {
        "name": "g",
        "apps": [{"kind": "probe", "versions": ["ok", "slow"]}],
        "seeds": [1, 2],
        "machines": [{}, {"n_io_nodes": 4}],
        "faults": ["none", {"class": "disk", "horizon": 10.0}],
        "repeat": 2,
    }
    a = sweep.SweepGrid.from_dict(spec)
    b = sweep.SweepGrid.from_dict(json.loads(json.dumps(spec)))
    assert a.grid_hash == b.grid_hash
    pa, pb = a.expand(), b.expand()
    assert [p.point_id for p in pa] == [p.point_id for p in pb]
    assert len(pa) == 2 * 2 * 2 * 2 * 2
    assert [p.index for p in pa] == list(range(len(pa)))
    # Round-trips through the journal-header form.
    again = sweep.SweepGrid.from_dict(a.to_dict())
    assert again.grid_hash == a.grid_hash


@pytest.mark.parametrize("broken", [
    {"apps": [{"kind": "probe", "versions": ["ok"]}]},          # no name
    {"name": "g", "apps": []},                                   # no apps
    {"name": "g", "apps": [{"kind": "nope", "versions": ["A"]}]},
    {"name": "g", "apps": [{"kind": "probe", "versions": ["ok"]}],
     "seeds": []},
    {"name": "g", "apps": [{"kind": "probe", "versions": ["ok"]}],
     "machines": [{"bogus": 1}]},
    {"name": "g", "apps": [{"kind": "probe", "versions": ["ok"]}],
     "faults": [{"class": "not-a-fault", "horizon": 1.0}]},
    {"name": "g", "apps": [{"kind": "probe", "versions": ["ok"]}],
     "repeat": 0},
    {"name": "g", "apps": [{"kind": "probe", "versions": ["ok"]}],
     "surprise": True},
])
def test_grid_spec_validation(broken):
    with pytest.raises(SweepError):
        sweep.SweepGrid.from_dict(broken)


# -- happy path / dedup / load balance -----------------------------------

def test_sweep_completes_and_counts(tmp_path):
    grid = sweep.SweepGrid.from_dict({
        "name": "happy",
        "apps": [{"kind": "probe", "versions": ["ok"]}],
        "seeds": [101, 102, 103],
    })
    journal = tmp_path / "happy.jsonl"
    outcome = sweep.run_grid(grid, journal, jobs=2, backoff=0.01)
    assert outcome.complete
    assert outcome.counts == {
        "total": 3, "completed": 3, "quarantined": 0, "pending": 0,
    }
    assert outcome.telemetry["points_done"] == 3
    assert outcome.telemetry["workers_spawned"] >= 2
    # Every completed point carries the deterministic summary columns.
    for record in outcome.done.values():
        summary = record["summary"]
        assert summary["application"] == "ESCAT"
        assert summary["wall_time"] > 0
        assert summary["events"] > 0


def test_thousand_point_grid_dedups_through_run_cache():
    # 1008 points, only 8 distinct runs: repeats share a run key, so
    # the engine parks clones and completes them driver-side from the
    # first execution -- the run cache and dedup do all the real work.
    grid = sweep.SweepGrid.from_dict({
        "name": "bulk",
        "apps": [{"kind": "probe", "versions": ["ok"]}],
        "seeds": [201, 202, 203, 204, 205, 206, 207, 208],
        "repeat": 126,
    })
    points = grid.expand()
    assert len(points) == 1008
    outcome = sweep.run_points(points, jobs=4, backoff=0.01)
    assert outcome.complete
    assert outcome.counts["completed"] == 1008
    assert len(outcome.executed) <= 8
    assert outcome.telemetry["dedup_hits"] == 1008 - len(outcome.executed)
    assert outcome.telemetry["points_done"] == 1008


def test_work_stealing_from_imbalanced_shards():
    # Slow probes at the even indices, cheap ones at the odd: a
    # round-robin split would hand every slow point to worker 0.  The
    # one FIFO queue instead gives each idle worker the next point, so
    # worker 1 takes slow points once its cheap one is done.
    # Structural on any core count: a cheap point finishes well inside
    # a slow one.
    behaviors = ["slow" if i % 2 == 0 else "ok" for i in range(12)]
    points = _probe_points(behaviors, start_seed=300)
    outcome = sweep.run_points(points, jobs=2, backoff=0.01)
    assert outcome.complete
    assert outcome.counts["completed"] == 12
    slow_workers = {
        outcome.done[p.point_id]["worker"]
        for p in points if p.version == "slow"
    }
    assert slow_workers == {0, 1}


def test_telemetry_registry_exposes_counters():
    telemetry = SweepTelemetry()
    telemetry.points_done = 5
    telemetry.retries = 2
    registry = telemetry.as_registry()
    families = {f["name"]: f for f in registry.collect()}
    assert families["sweep_points_done"]["samples"][0]["value"] == 5.0
    assert families["sweep_retries"]["samples"][0]["value"] == 2.0
    # Live view: mutating the counter changes the next collection.
    telemetry.points_done = 6
    families = {f["name"]: f for f in registry.collect()}
    assert families["sweep_points_done"]["samples"][0]["value"] == 6.0


# -- failure classes -----------------------------------------------------

def test_crashed_worker_point_is_retried_and_completes():
    sweep.reset_crash_markers()
    points = _probe_points(["crash-once", "ok"], start_seed=400)
    outcome = sweep.run_points(points, jobs=2, retries=2, backoff=0.01)
    assert outcome.complete
    assert outcome.counts["completed"] == 2
    assert outcome.telemetry["worker_crashes"] >= 1
    assert outcome.telemetry["retries"] >= 1


def test_poisoned_point_quarantines_without_failing_sweep():
    points = _probe_points(["crash", "ok", "ok"], start_seed=410)
    outcome = sweep.run_points(points, jobs=2, retries=1, backoff=0.01)
    assert outcome.complete
    assert outcome.counts["quarantined"] == 1
    assert outcome.counts["completed"] == 2
    assert outcome.telemetry["points_quarantined"] == 1
    record = next(iter(outcome.quarantined.values()))
    assert "died mid-point" in record["error"]
    assert record["attempts"] == 2  # budget respected: 1 retry + final


def test_failing_point_quarantines_with_traceback():
    points = _probe_points(["error", "ok"], start_seed=420)
    outcome = sweep.run_points(points, jobs=2, retries=0, backoff=0.01)
    assert outcome.counts["quarantined"] == 1
    record = next(iter(outcome.quarantined.values()))
    assert "ZeroDivisionError" in record["error"]
    assert "ZeroDivisionError" in (record["traceback"] or "")


def test_hung_point_times_out_and_quarantines():
    points = _probe_points(["hang", "ok"], start_seed=430)
    start = time.monotonic()
    outcome = sweep.run_points(
        points, jobs=2, retries=0, backoff=0.01, timeout=0.5,
    )
    assert outcome.complete
    assert time.monotonic() - start < 30.0
    assert outcome.counts["quarantined"] == 1
    assert outcome.counts["completed"] == 1
    assert outcome.telemetry["timeouts"] >= 1


def test_serial_inline_path_isolates_failures():
    points = _probe_points(["error", "ok"], start_seed=440)
    outcome = sweep.run_points(points, jobs=1, retries=0)
    assert outcome.counts == {
        "total": 2, "completed": 1, "quarantined": 1, "pending": 0,
    }


@pytest.mark.parametrize("timeout", [0.0, -1.0])
def test_nonpositive_timeout_is_rejected_at_entry(timeout):
    points = _probe_points(["ok"], start_seed=445)
    with pytest.raises(SweepError, match="timeout must be > 0"):
        sweep.run_points(points, jobs=2, timeout=timeout)


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_cli_sweep_run_rejects_nonpositive_timeout(tmp_path, capsys,
                                                   timeout):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({
        "name": "bad-timeout",
        "apps": [{"kind": "probe", "versions": ["ok"]}],
        "seeds": [446],
    }))
    journal = tmp_path / "bad.jsonl"
    assert main([
        "sweep", "run", str(grid_file), "--journal", str(journal),
        "--timeout", timeout,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "timeout must be > 0" in err
    assert not journal.exists()


# -- the worker pool -----------------------------------------------------

def _mute_worker(slot_id, inbox, results):
    """Takes each message and never answers: a hang that no SIGALRM
    guard interrupts."""
    while inbox.get() is not None:
        time.sleep(3600.0)


def _exit3_worker(slot_id, inbox, results):
    """Dies with exit code 3 on its first message."""
    if inbox.get() is not None:
        os._exit(3)


def _poll_until_outcome(pool, limit=30.0):
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        outcomes = pool.poll(0.05)
        if outcomes:
            return outcomes
    pytest.fail("the pool reported nothing")


def test_pool_poll_kills_and_respawns_a_hung_worker():
    pool = WorkerPool(1, target=_mute_worker)
    pool.start()
    try:
        start = time.monotonic()
        pool.send(pool.slots[0], "p0", "work", timeout=0.1)
        outcomes = _poll_until_outcome(pool)
        # Hard deadline: 0.1 s x HARD_TIMEOUT_FACTOR + 1 s.
        assert time.monotonic() - start >= 1.3
        assert outcomes == [("hung", 0, "p0", None)]
        assert pool.spawned == 2
        assert pool.alive_count == 1
        assert pool.idle_slots() == pool.slots
    finally:
        pool.close()


def test_pool_poll_reports_a_crash_with_its_exit_code():
    pool = WorkerPool(1, target=_exit3_worker)
    pool.start()
    try:
        pool.send(pool.slots[0], "p0", "work", timeout=None)
        assert _poll_until_outcome(pool) == [("crashed", 0, "p0", 3)]
        assert pool.spawned == 2
        assert pool.idle_slots() == pool.slots
    finally:
        pool.close()


def test_idle_worker_death_counts_a_crash_and_retries_nothing():
    pool = WorkerPool(1)
    pool.start()
    try:
        pool.slots[0].kill()
        outcomes = _poll_until_outcome(pool)
        assert outcomes == [("crashed", 0, None, -signal.SIGKILL)]
        assert pool.alive_count == 1
    finally:
        pool.close()
    scheduler = _Scheduler(
        _probe_points(["ok"], start_seed=450), jobs=2, retries=1,
        backoff=0.0, timeout=None, writer=None,
    )
    for outcome in outcomes:
        scheduler._settle(*outcome)
    assert scheduler.telemetry.worker_crashes == 1
    assert scheduler.telemetry.retries == 0
    assert not scheduler.pending_retry
    assert [r.status for r in scheduler.records.values()] == ["pending"]


def test_pool_close_twice_is_safe():
    pool = WorkerPool(2)
    pool.start()
    pool.close()
    pool.close()
    assert pool.alive_count == 0


# -- the journal ---------------------------------------------------------

def test_journal_tolerates_torn_final_line(tmp_path):
    grid = sweep.SweepGrid.from_dict({
        "name": "torn",
        "apps": [{"kind": "probe", "versions": ["ok"]}],
        "seeds": [501],
    })
    journal = tmp_path / "torn.jsonl"
    sweep.run_grid(grid, journal, jobs=1)
    with open(journal, "a") as stream:
        stream.write('{"event": "done", "point": "tr')  # killed mid-write
    state = sweep.read_journal(journal)
    assert state.torn_lines == 1
    assert len(state.done) == 1


def test_journal_rejects_mid_file_corruption(tmp_path):
    journal = tmp_path / "corrupt.jsonl"
    journal.write_text(
        '{"event": "sweep", "grid": {}, "n_points": 1}\n'
        "NOT JSON\n"
        '{"event": "finished"}\n'
    )
    with pytest.raises(SweepError, match="corrupt at line 2"):
        sweep.read_journal(journal)


def test_journal_requires_header(tmp_path):
    journal = tmp_path / "headerless.jsonl"
    journal.write_text('{"event": "done", "point": "abc"}\n')
    with pytest.raises(SweepError, match="no header"):
        sweep.read_journal(journal)


def test_run_grid_refuses_existing_journal(tmp_path):
    grid = sweep.SweepGrid.from_dict({
        "name": "dup",
        "apps": [{"kind": "probe", "versions": ["ok"]}],
        "seeds": [502],
    })
    journal = tmp_path / "dup.jsonl"
    sweep.run_grid(grid, journal, jobs=1)
    with pytest.raises(SweepError, match="already exists"):
        sweep.run_grid(grid, journal, jobs=1)


# -- resume after driver death -------------------------------------------

def _driver_body(grid_spec, journal):
    grid = sweep.SweepGrid.from_dict(grid_spec)
    sweep.run_grid(grid, journal, jobs=2, backoff=0.01)


def test_resume_after_driver_sigkill(tmp_path):
    # The acceptance test: SIGKILL the driver mid-sweep, resume from
    # the journal, complete the grid with zero re-simulation of
    # journaled-complete points, and render an aggregate bit-identical
    # to an uninterrupted run.  The cheap "ok" probes complete early
    # (giving the parent something to observe), the slow ones keep the
    # sweep busy long enough to be killed mid-flight.
    spec = {
        "name": "killed",
        "apps": [{"kind": "probe", "versions": ["ok", "slow"]}],
        "seeds": [601, 602, 603, 604, 605, 606],
    }
    journal = tmp_path / "killed.jsonl"
    driver = multiprocessing.Process(
        target=_driver_body, args=(spec, str(journal)),
    )
    driver.start()
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if journal.exists() and journal.read_text().count(
            '"event":"done"'
        ) >= 2:
            break
        time.sleep(0.01)
    else:
        pytest.fail("driver never completed two points")
    os.kill(driver.pid, signal.SIGKILL)
    driver.join()
    assert driver.exitcode == -signal.SIGKILL

    before = sweep.read_journal(journal)
    assert not before.finished
    assert 2 <= len(before.done) < 12

    outcome = sweep.resume(journal, jobs=2, backoff=0.01)
    assert outcome.complete
    assert outcome.counts["completed"] == 12
    # Zero redundant simulation: nothing this session executed was
    # already terminal in the journal.
    assert not (outcome.executed & set(before.done))
    assert len(outcome.executed) == 12 - len(before.done)

    after = sweep.read_journal(journal)
    points = sweep.SweepGrid.from_dict(spec).expand()
    resumed_aggregate = sweep.render_aggregate(
        points, after.done, after.quarantined, grid_name="killed",
    )
    fresh_journal = tmp_path / "fresh.jsonl"
    sweep.run_grid(
        sweep.SweepGrid.from_dict(spec), fresh_journal, jobs=2,
        backoff=0.01,
    )
    fresh = sweep.read_journal(fresh_journal)
    fresh_aggregate = sweep.render_aggregate(
        points, fresh.done, fresh.quarantined, grid_name="killed",
    )
    assert resumed_aggregate == fresh_aggregate


def test_resume_rejects_foreign_points(tmp_path):
    grid = sweep.SweepGrid.from_dict({
        "name": "strays",
        "apps": [{"kind": "probe", "versions": ["ok"]}],
        "seeds": [620],
    })
    journal = tmp_path / "strays.jsonl"
    sweep.run_grid(grid, journal, jobs=1)
    with open(journal, "a") as stream:
        stream.write(json.dumps({
            "event": "done", "point": "f" * 16, "summary": {},
        }) + "\n")
    with pytest.raises(SweepError, match="outside its own grid"):
        sweep.resume(journal, jobs=1)


# -- aggregate -----------------------------------------------------------

def test_partial_aggregate_reports_pending_and_quarantined(tmp_path):
    points = _probe_points(["ok", "error"], start_seed=700)
    outcome = sweep.run_points(points, jobs=2, retries=0, backoff=0.01)
    pending_point = SweepPoint(index=2, kind="probe", version="ok",
                               seed=750)
    table = sweep.build_table(
        points + [pending_point], outcome.done, outcome.quarantined,
    )
    assert table["status"] == ["done", "quarantined", "pending"]
    assert table["wall_time"][0] > 0
    assert table["wall_time"][1] is None
    assert "ZeroDivisionError" in table["error"][1]
    report = sweep.partial_report(
        points, outcome.done, outcome.quarantined, grid_name="p",
    )
    assert "1 done" in report and "1 quarantined" in report
    assert "ZeroDivisionError" in report


# -- CLI -----------------------------------------------------------------

def test_cli_sweep_run_status_resume(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({
        "name": "cli-grid",
        "apps": [{"kind": "probe", "versions": ["ok"]}],
        "seeds": [801, 802],
    }))
    journal = tmp_path / "cli.jsonl"
    aggregate = tmp_path / "agg.json"
    assert main([
        "sweep", "run", str(grid_file), "--journal", str(journal),
        "--jobs", "2", "--backoff", "0.01",
        "--aggregate", str(aggregate),
    ]) == 0
    out = capsys.readouterr().out
    assert "2 done" in out and "telemetry:" in out
    payload = json.loads(aggregate.read_text())
    assert payload["counts"]["done"] == 2
    assert payload["columns"]["status"] == ["done", "done"]

    assert main(["sweep", "status", str(journal)]) == 0
    assert "0 pending" in capsys.readouterr().out

    # Resuming a finished sweep is a journaled no-op.
    assert main([
        "sweep", "resume", str(journal), "--jobs", "1",
    ]) == 0
    assert "2 done" in capsys.readouterr().out

    # A second `run` over the same journal must refuse (resume owns it).
    assert main([
        "sweep", "run", str(grid_file), "--journal", str(journal),
    ]) == 1
    assert "already exists" in capsys.readouterr().err


def test_cli_sweep_status_missing_journal(tmp_path, capsys):
    assert main(["sweep", "status", str(tmp_path / "nope.jsonl")]) == 1
    assert "cannot read sweep journal" in capsys.readouterr().err


# -- engine clients ------------------------------------------------------

def test_prewarm_isolates_bad_specs():
    from repro.experiments.parallel import prewarm

    errors = {}
    completed = prewarm(
        jobs=2, fast=True,
        specs=[("escat", "C"), ("escat", "nope"), ("prism", "B")],
        errors=errors,
    )
    assert completed == 2
    assert list(errors) == ["escat/nope"]
    assert "unknown ESCAT version" in errors["escat/nope"]


def test_prewarm_serial_isolates_bad_specs():
    from repro.experiments.parallel import prewarm

    errors = {}
    completed = prewarm(
        jobs=1, fast=True,
        specs=[("escat", "C"), ("escat", "nope")],
        errors=errors,
    )
    assert completed == 1
    assert "unknown ESCAT version" in errors["escat/nope"]


def test_chaos_report_parallel_matches_serial():
    from repro.experiments.chaos import chaos_report

    parallel = chaos_report(app="escat", classes=["disk"], jobs=2)
    serial = chaos_report(app="escat", classes=["disk"], jobs=1)
    assert parallel.format() == serial.format()
