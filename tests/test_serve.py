"""Tests for the traffic-serving simulation service.

Covers the tentpole contracts: spec validation through the sweep
grid's machinery, the cache-backed hot path (repeat queries never
simulate), concurrent dedup (N clients, one simulation), byte-identity
of served SDDF with the CLI trace path, the shared status serializer,
graceful SIGTERM drain, and SIGKILL-resumable journals.
"""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.analysis.rules import SCOPED_PACKAGES
from repro.cli import build_parser, main
from repro.errors import ServeError, ServeSpecError
from repro.experiments import sweep
from repro.experiments.sweep.aggregate import (
    METRIC_COLUMNS,
    PARAM_COLUMNS,
)
from repro.serve import (
    ReproServeServer,
    RunRequest,
    ServeClient,
    read_serve_journal,
)


@pytest.fixture
def serve_pair(tmp_path, monkeypatch):
    """A started server (fresh cache dir + journal) and its client."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    server = ReproServeServer(
        port=0, workers=2, retries=1,
        journal=tmp_path / "serve.jsonl",
    )
    server.start()
    yield server, ServeClient(server.url)
    server.stop(drain_timeout=30.0)


# -- spec validation ------------------------------------------------------

def test_run_request_reuses_grid_validation():
    req = RunRequest.from_dict(
        {"kind": "probe", "version": "ok", "seed": 3}
    )
    assert req.run_key
    assert req.point.point_id
    # Same machinery as SweepGrid.from_dict: same rejections.
    for bad in (
        {"kind": "nope", "version": "A"},
        {"kind": "probe", "version": "ok", "surprise": 1},
        {"kind": "probe", "version": "ok", "seed": "three"},
        {"kind": "probe", "version": "ok", "seed": True},
        {"kind": "probe", "version": "ok",
         "machine": {"n_io_nodes": -1}},
        {"kind": "probe", "version": "ok",
         "fault": {"class": "not-a-fault", "horizon": 1.0}},
        {"kind": "probe", "version": "definitely-not-a-behavior"},
        "not a dict",
    ):
        with pytest.raises(ServeSpecError):
            RunRequest.from_dict(bad)


def test_run_request_matches_cli_cache_key():
    # The serve spec and the CLI/runner path must land on the same
    # content-addressed cache entry — that is the whole hot path.
    from repro.experiments.runner import plan_run

    req = RunRequest.from_dict(
        {"kind": "escat", "version": "A", "fast": True, "seed": 71}
    )
    assert req.run_key == plan_run(
        "escat", "A", fast=True, seed=71
    ).key


def test_run_request_canonical_round_trips():
    spec = {"kind": "probe", "version": "ok", "seed": 9, "fast": True,
            "machine": {"n_io_nodes": 4}, "name": "n1",
            "telemetry": True}
    req = RunRequest.from_dict(spec)
    again = RunRequest.from_dict(req.canonical())
    assert again.run_key == req.run_key
    assert again.canonical() == req.canonical()


# -- round trip / hot path ------------------------------------------------

def test_escat_round_trip_byte_identical_with_cli(
    serve_pair, tmp_path, monkeypatch
):
    server, client = serve_pair
    # The CLI trace path first (stores into the shared run cache).
    # The runner's in-process memo must not short-circuit the disk
    # store (this test's cache dir is fresh), so clear it.
    from repro.experiments import runner

    monkeypatch.setattr(runner, "_CACHE", {})
    out = tmp_path / "cli.sddf"
    assert main(["trace", "escat", "A", str(out), "--fast"]) == 0
    cli_text = out.read_text()
    # ...then the same logical run through the service: answered from
    # the cache, byte-identical, zero simulations server-side.
    doc = client.submit({"kind": "escat", "version": "A", "fast": True})
    assert doc["state"] == "done"
    assert doc["cache_hit"] is True
    result = client.result(doc["job"])
    assert result["sddf"] == cli_text
    assert server.manager.counters["executed"] == 0
    assert server.manager.counters["cache_hits"] == 1


def test_fresh_run_then_repeat_hits_cache(serve_pair):
    server, client = serve_pair
    spec = {"kind": "probe", "version": "ok", "seed": 31}
    doc = client.submit(spec)
    doc = client.wait(doc["job"], timeout=60.0)
    assert doc["state"] == "done"
    assert server.manager.counters["executed"] == 1
    # The repeat answers from the cache without waking a worker.
    again = client.submit(spec)
    assert again["state"] == "done"
    assert again["cache_hit"] is True
    assert again["job"] != doc["job"]
    assert server.manager.counters["executed"] == 1
    # Summaries agree (the sidecar carries the full summary row).
    for key in ("wall_time", "events", "io_node_seconds"):
        assert again["point"][key] == doc["point"][key]


def test_result_refuses_altered_stored_trace(serve_pair):
    # /result sends the stored SDDF bytes only when they have the
    # sidecar's length and SHA-256: a same-length edit is a defect,
    # answered 404 with the entry quarantined, never sent.
    from repro.errors import ServeJobNotFoundError
    from repro.experiments import cache

    server, client = serve_pair
    doc = client.submit({"kind": "probe", "version": "ok", "seed": 61})
    doc = client.wait(doc["job"], timeout=60.0)
    assert doc["state"] == "done"
    trace_path, meta_path = cache._paths(doc["run_key"])
    stored = trace_path.read_bytes()
    assert client.result(doc["job"])["sddf"].encode() == stored
    altered = bytearray(stored)
    altered[-2] ^= 0x01
    trace_path.write_bytes(bytes(altered))
    with pytest.raises(ServeJobNotFoundError):
        client.result(doc["job"])
    assert not trace_path.exists() and not meta_path.exists()
    assert not cache._columns_path(trace_path).exists()


def test_concurrent_same_spec_simulates_once(serve_pair):
    server, client = serve_pair
    n = 6
    spec = {"kind": "probe", "version": "slow", "seed": 77}
    barrier = threading.Barrier(n)
    docs = [None] * n
    errors = []

    def submit(i):
        try:
            barrier.wait(timeout=10.0)
            local = ServeClient(server.url)
            doc = local.submit(spec)
            docs[i] = local.wait(doc["job"], timeout=60.0)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=90.0)
    assert not errors
    assert all(doc is not None and doc["state"] == "done"
               for doc in docs)
    # One simulation total: every other client either attached to the
    # in-flight job (same id) or answered from the cache it produced.
    assert server.manager.counters["executed"] == 1
    fresh_ids = {doc["job"] for doc in docs if not doc["cache_hit"]}
    assert len(fresh_ids) == 1


def test_name_idempotency(serve_pair):
    server, client = serve_pair
    spec = {"kind": "probe", "version": "ok", "seed": 41, "name": "n1"}
    doc = client.submit(spec)
    doc = client.wait(doc["job"], timeout=60.0)
    again = client.submit(spec)
    assert again["job"] == doc["job"]
    # Lookup works by name too.
    assert client.job("n1")["job"] == doc["job"]


# -- events / metrics -----------------------------------------------------

def test_events_stream_lifecycle_and_samples(serve_pair):
    server, client = serve_pair
    doc = client.submit({"kind": "probe", "version": "ok", "seed": 51,
                         "telemetry": True})
    client.wait(doc["job"], timeout=60.0)
    events = list(client.events(doc["job"]))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "queued"
    assert "running" in kinds
    assert "done" in kinds
    assert kinds[-1] == "end"
    assert events[-1]["state"] == "done"
    samples = [e for e in events if e["event"] == "sample"]
    assert samples, "telemetry run must stream sampler rows"
    assert all("t" in s for s in samples)
    # Monotone time axis straight from the SimTimeSampler grid.
    ts = [s["t"] for s in samples]
    assert ts == sorted(ts)


def test_metrics_and_status_endpoints(serve_pair):
    server, client = serve_pair
    doc = client.submit({"kind": "probe", "version": "ok", "seed": 61})
    client.wait(doc["job"], timeout=60.0)
    text = client.metrics()
    assert "# TYPE serve_jobs_submitted gauge" in text
    assert "serve_jobs_done" in text
    assert "serve_workers_alive" in text
    status = client.status()
    assert status["workers"]["slots"] == 2
    assert status["counters"]["executed"] == 1
    assert status["jobs"]["done"] == 1
    stats = client.cache_stats()
    assert stats["enabled"] is True
    assert stats["entries"] >= 1


# -- shared status serializer (satellite 1) -------------------------------

def test_sweep_status_json_shares_serve_row_shape(tmp_path, capsys):
    grid = sweep.SweepGrid.from_dict({
        "name": "statusdemo",
        "apps": [{"kind": "probe", "versions": ["ok"]}],
        "seeds": [301, 302],
    })
    journal = tmp_path / "s.jsonl"
    sweep.run_grid(grid, journal, jobs=2, backoff=0.01)
    assert main(["sweep", "status", str(journal), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["grid"] == "statusdemo"
    assert payload["counts"] == {
        "total": 2, "done": 2, "quarantined": 0, "pending": 0,
    }
    expected_keys = set(PARAM_COLUMNS) | set(METRIC_COLUMNS)
    assert all(set(row) == expected_keys for row in payload["points"])


def test_serve_job_point_row_matches_status_rows(serve_pair):
    server, client = serve_pair
    doc = client.submit({"kind": "probe", "version": "ok", "seed": 71})
    doc = client.wait(doc["job"], timeout=60.0)
    # The embedded point row is exactly one sweep-status row: the two
    # surfaces share the serializer, so the key sets are identical.
    assert set(doc["point"]) == set(PARAM_COLUMNS) | set(METRIC_COLUMNS)
    assert doc["point"]["status"] == "done"
    assert doc["point"]["wall_time"] > 0


# -- graceful shutdown (satellite 2) --------------------------------------

def _boot_subprocess_server(tmp_path, extra_args=()):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1",
         "--journal", str(tmp_path / "serve.jsonl"), *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    line = proc.stdout.readline()
    assert "listening on" in line, line
    url = line.split("listening on ")[1].split()[0]
    return proc, url


def test_sigterm_drains_and_journals(tmp_path):
    proc, url = _boot_subprocess_server(tmp_path)
    try:
        client = ServeClient(url)
        ids = [
            client.submit({"kind": "probe", "version": "slow",
                           "seed": 400 + i})["job"]
            for i in range(3)
        ]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
    state = read_serve_journal(tmp_path / "serve.jsonl")
    assert state is not None
    journaled = {record["job"] for record in state.jobs}
    assert journaled == set(ids)
    assert state.shutdowns, "graceful exit must journal a shutdown"
    pending = set(state.shutdowns[-1]["pending"])
    # Exact partition: every submitted job either finished (journaled
    # done) or was journaled pending at shutdown — nothing vanished.
    assert (set(state.done) | pending) == set(ids)
    assert set(state.done).isdisjoint(pending)


def test_sigkill_leaves_journal_resumable(tmp_path, monkeypatch):
    proc, url = _boot_subprocess_server(tmp_path)
    try:
        client = ServeClient(url)
        ids = [
            client.submit({"kind": "probe", "version": "slow",
                           "seed": 500 + i})["job"]
            for i in range(4)
        ]
        # Kill while the backlog is outstanding: no drain, no
        # shutdown record, possibly a torn final journal line.
        proc.kill()
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
    state = read_serve_journal(tmp_path / "serve.jsonl")
    assert state is not None
    assert {record["job"] for record in state.jobs} == set(ids)
    assert not state.shutdowns
    # Restart over the same journal (and the same run cache): the
    # interrupted jobs re-queue under their original ids and finish.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    server = ReproServeServer(port=0, workers=1,
                              journal=tmp_path / "serve.jsonl")
    server.start()
    try:
        restarted = ServeClient(server.url)
        for job_id in ids:
            doc = restarted.wait(job_id, timeout=60.0)
            assert doc["state"] == "done"
        # Journal-recovered completions were either already cached
        # (run completed pre-kill) or simulated exactly once now.
        assert server.manager.counters["executed"] <= len(ids)
    finally:
        server.stop(drain_timeout=30.0)
    # The journal now records every job done.
    state = read_serve_journal(tmp_path / "serve.jsonl")
    assert set(state.done) | {
        record["job"] for record in state.jobs
        if record["job"] not in state.done
    } == set(ids)


def test_torn_final_journal_line_is_tolerated(tmp_path):
    path = tmp_path / "serve.jsonl"
    path.write_text(
        '{"kind": "serve", "event": "header", "version": 1}\n'
        '{"event": "job", "job": "j00001-aaaaaaaa", "seq": 1,'
        ' "spec": {"kind": "probe", "version": "ok", "seed": 1}}\n'
        '{"event": "done", "job": "j00001-aaa'  # torn mid-append
    )
    state = read_serve_journal(path)
    assert len(state.jobs) == 1
    assert not state.done


@pytest.mark.parametrize("where", ["middle", "first"])
def test_non_object_journal_line_is_corruption(tmp_path, where):
    # A line that parses as JSON but is not a record object is
    # corruption like any other unparsable interior line: a ServeError
    # naming the line, not a crash in the record handling.
    header = '{"kind": "serve", "event": "header", "version": 1}'
    job = (
        '{"event": "job", "job": "j00001-aaaaaaaa", "seq": 1,'
        ' "spec": {"kind": "probe", "version": "ok", "seed": 1}}'
    )
    lines = [header, "[1, 2]", job] if where == "middle" \
        else ["[1, 2]", header, job]
    path = tmp_path / "serve.jsonl"
    path.write_text("\n".join(lines) + "\n")
    line = 2 if where == "middle" else 1
    with pytest.raises(ServeError, match=f"corrupt at line {line}"):
        read_serve_journal(path)


# -- lint scope (satellite 6) ---------------------------------------------

def test_serve_is_outside_determinism_scope():
    assert "serve" not in SCOPED_PACKAGES


def test_serve_package_lints_clean():
    from repro.analysis import lint_paths, report_payload

    reports = lint_paths(["src/repro/serve"])
    assert report_payload(reports)["finding_count"] == 0


# -- CLI parser -----------------------------------------------------------

def test_parser_accepts_serve_commands():
    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--port", "0", "--workers", "3",
         "--journal", "j.jsonl", "--max-queue", "9"]
    )
    assert args.workers == 3 and args.max_queue == 9
    args = parser.parse_args(
        ["submit", "escat", "A", "--fast", "--seed", "7",
         "--name", "n1", "--telemetry", "--io-nodes", "4",
         "--no-wait", "--url", "http://h:1"]
    )
    assert args.kind == "escat" and args.io_nodes == 4
    assert args.no_wait and args.telemetry
    args = parser.parse_args(["jobs", "j00001-abc", "--events"])
    assert args.job == "j00001-abc" and args.events
    args = parser.parse_args(["sweep", "status", "j.jsonl", "--json"])
    assert args.json
    args = parser.parse_args(
        ["bench", "--serve-only", "--serve-output", "B.json"]
    )
    assert args.serve_only and args.serve_output == "B.json"


def test_submit_cli_against_live_server(serve_pair, tmp_path, capsys):
    server, _ = serve_pair
    rc = main([
        "submit", "probe", "ok", "--seed", "81",
        "--url", server.url, "--output", str(tmp_path / "out.sddf"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "done" in out
    assert (tmp_path / "out.sddf").read_text().startswith("#SDDF-IO")
    rc = main(["jobs", "--url", server.url])
    assert rc == 0
    assert "j00001" in capsys.readouterr().out
