"""The ``serve-mix`` workload.

A ``repro serve`` process (ephemeral port, no more workers than
cores, throwaway cache and journal) driven by two closed-loop client
threads of the benchmark process.  Each client walks a fixed cycle of
20 requests: 18
sidecar-only cache hits (a probe spec), 1 fresh probe run (a unique
seed, so it goes through the journal and the worker pool) and 1
``GET /result`` of a cached PRISM-C run.  The seed gives the inputs:
the simulator seed of the hit spec and of PRISM-C, and the fresh probe
seeds, which count up from it so none can be a hit.  Clients wait for fresh
runs the way ``repro submit`` does (``ServeClient.wait``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import common

CLIENTS = 2
#: One client's repeating cycle: 18 hits, 1 fresh run, 1 result fetch,
#: with the two heavy requests half a cycle apart.  Client ``c`` starts
#: ``c * CLIENT_OFFSET`` requests into the cycle, so the clients' heavy
#: requests are staggered rather than aligned.
CYCLE = ("fresh",) + ("hit",) * 9 + ("result",) + ("hit",) * 9
CLIENT_OFFSET = 5
SETUP_REPEATS = 3
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
#: How long a killed server's process group may take to end.
GROUP_EXIT_TIMEOUT_S = 30.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, int(-(-q * len(ordered) // 1))))
    return ordered[rank - 1]


def _live_members(pgid: int) -> list:
    """Processes of group ``pgid`` that have not ended, from ``/proc``
    (zombies excluded)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # After the command name come state, ppid and pgrp.
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(int(entry))
    return members


def _await_group_exit(pgid: int) -> None:
    """SIGKILL group ``pgid`` until none of its processes is left.  The
    server's workers are not our children, so ``wait`` cannot see them."""
    deadline = time.monotonic() + GROUP_EXIT_TIMEOUT_S
    while True:
        if not _live_members(pgid):
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes of group {pgid} outlived SIGKILL")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        time.sleep(0.01)


class Server:
    """One ``repro serve`` child process in its own session, so the
    whole process group (server plus workers) can be stopped."""

    def __init__(self, ctx: common.Context, tag: str, spans_path: str) -> None:
        self.dir = ctx.workdir / f"serve-{tag}"
        self.dir.mkdir(parents=True)
        self.cache_dir = self.dir / "cache"
        self.log = self.dir / "serve.log"
        workers = max(1, min(2, os.cpu_count() or 1))
        with open(self.log, "w") as out:
            self.proc = subprocess.Popen(
                [sys.executable, str(common.HERE / "serve_child.py"),
                 spans_path, "--", "--port", "0", "--workers", str(workers),
                 "--journal", str(self.dir / "journal.jsonl")],
                env=common.child_env(self.cache_dir), cwd=str(common.ROOT),
                stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.url = self._await_url()

    def _await_url(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log.read_text()
            for line in text.splitlines():
                if line.startswith("repro serve listening on "):
                    return line.split()[4]
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early:\n{text}")
            time.sleep(0.02)
        raise RuntimeError("repro serve did not start listening in time")

    def stop(self) -> None:
        """Graceful stop (SIGTERM drains); kill the group if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL the whole group, then wait until every process in it
        (server, workers and anything they started) has ended."""
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        _await_group_exit(pgid)

    def stored_sddf(self, run_key: str) -> Path:
        return self.cache_dir / run_key[:2] / f"{run_key}.sddf"


def _counting_client(url: str):
    from repro.serve.client import ServeClient

    class CountingClient(ServeClient):
        """Times every HTTP call; counts ``wait`` polls."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.http_s = 0.0
            self.polls = 0

        def _json(self, path, body=None):
            start = time.perf_counter()
            try:
                return super()._json(path, body)
            finally:
                self.http_s += time.perf_counter() - start

        def job(self, job_id):
            self.polls += 1
            return super().job(job_id)

    return CountingClient(url, timeout=REQUEST_TIMEOUT_S)


def _one(client, kind: str, config: dict, mine: dict) -> bool:
    """One request of class ``kind``; records its latency if it is good."""
    if kind == "hit":
        start = time.perf_counter()
        doc = client.submit(config["hit_spec"])
        elapsed = time.perf_counter() - start
        if (doc.get("state") != "done" or not doc.get("cache_hit")
                or doc["point"].get("events") != config["hit_events"]):
            mine["errors"].append(f"hit: unexpected job {doc.get('job')}")
            return False
        mine["hit"].append(elapsed)
        return True
    if kind == "fresh":
        # Client c's k-th fresh seed is sim_seed + 1 + c + k * CLIENTS:
        # unique across clients, and never the hit spec's seed.
        seed = config["sim_seed"] + 1 + config["index"] + CLIENTS * len(
            mine["fresh_seeds"])
        mine["fresh_seeds"].append(seed)
        start = time.perf_counter()
        doc = client.submit({"kind": "probe", "version": "ok", "seed": seed})
        submitted = time.perf_counter()
        mine["fresh_accepted"] += 1
        if doc["state"] not in ("done", "failed"):
            http_before = client.http_s
            doc = client.wait(doc["job"], timeout=REQUEST_TIMEOUT_S)
            waited = time.perf_counter() - submitted
            mine["wait_s"] += waited - (client.http_s - http_before)
        elapsed = time.perf_counter() - start
        if doc["state"] != "done" or doc.get("cache_hit"):
            mine["errors"].append(
                f"fresh: job {doc.get('job')} {doc['state']} "
                f"(cache_hit={doc.get('cache_hit')})")
            return False
        mine["fresh"].append(elapsed)
        mine["fresh_submit"].append(submitted - start)
        mine["fresh_events"].append(doc["point"].get("events") or 0)
        return True
    start = time.perf_counter()
    body = client.result(config["result_job"])
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(body["sddf"].encode()).hexdigest()
    if digest != config["result_digest"]:
        mine["errors"].append("result: served SDDF differs from the "
                              "cached trace")
        return False
    mine["result"].append(elapsed)
    return True


_LISTS = ("hit", "fresh", "result", "fresh_submit", "fresh_events",
          "fresh_seeds", "cycles", "errors")
_SUMS = ("polls", "wait_s", "http_s", "active_s", "attempted", "failed",
         "fresh_accepted")


def client_main(config: dict, seconds: float, go, start_at, results) -> None:
    """One closed-loop client thread."""
    client = _counting_client(config["url"])
    mine = {key: [] for key in _LISTS}
    mine.update({key: 0 for key in _SUMS})
    results.put(("ready", config["index"], None))
    go.wait()
    begin = start_at.value
    deadline = begin + seconds
    cycle_start = begin
    cycle_ok = True
    done = 0
    while time.perf_counter() < deadline:
        kind = CYCLE[(config["index"] * CLIENT_OFFSET + done) % len(CYCLE)]
        mine["attempted"] += 1
        try:
            ok = _one(client, kind, config, mine)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            ok = False
            mine["errors"].append(f"{kind}: {type(exc).__name__}: {exc}")
        if not ok:
            mine["failed"] += 1
            cycle_ok = False
        done += 1
        if done % len(CYCLE) == 0:
            now = time.perf_counter()
            if cycle_ok:
                mine["cycles"].append(now - cycle_start)
            cycle_start = now
            cycle_ok = True
    mine["polls"] = client.polls
    mine["http_s"] = client.http_s
    mine["active_s"] = time.perf_counter() - begin
    results.put(("done", config["index"], mine))


def run_mix(server: Server, prewarm: dict, sim_seed: int,
            seconds: float) -> dict:
    """Drive ``server`` with the client threads for ``seconds``."""
    results = queue.Queue()
    go = threading.Event()
    start_at = SimpleNamespace(value=0.0)
    threads = []
    stats = {}
    for index in range(CLIENTS):
        config = dict(prewarm, url=server.url, index=index,
                      sim_seed=sim_seed)
        thread = threading.Thread(
            target=client_main, name=f"serve-mix-client-{index}",
            args=(config, seconds, go, start_at, results), daemon=True)
        thread.start()
        threads.append(thread)
    for _ in range(CLIENTS):
        results.get(timeout=BOOT_TIMEOUT_S)
    start_at.value = time.perf_counter()
    go.set()
    for _ in range(CLIENTS):
        _, index, mine = results.get(timeout=seconds + 4 * REQUEST_TIMEOUT_S)
        stats[index] = mine
    for thread in threads:
        thread.join()
    merged = {key: [x for s in stats.values() for x in s[key]]
              for key in _LISTS}
    for key in _SUMS:
        merged[key] = sum(s[key] for s in stats.values())
    merged["wall_s"] = max(s["active_s"] for s in stats.values())
    seeds = merged["fresh_seeds"]
    if len(set(seeds)) != len(seeds) or prewarm["hit_spec"]["seed"] in seeds:
        merged["errors"].append("fresh probe seeds collide")
        merged["failed"] += 1
    fresh_events = merged["fresh_events"]
    merged["records_per_cycle"] = prewarm["result_records"] + (
        statistics.median(fresh_events) if fresh_events else 0)
    return merged


def boot_and_prewarm(ctx: common.Context, tag: str, spans_path: str = ""):
    """Start a server and resolve the hit spec and the PRISM-C run."""
    from repro.serve.client import ServeClient

    server = Server(ctx, tag, spans_path)
    try:
        client = ServeClient(server.url, timeout=120.0)
        hit_spec = {"kind": "probe", "version": "ok", "seed": ctx.sim_seed}
        hit = client.wait(client.submit(hit_spec)["job"], timeout=120.0)
        prism = client.submit({"kind": "prism", "version": "C",
                               "seed": ctx.sim_seed})
        prism = client.wait(prism["job"], timeout=120.0)
        if hit["state"] != "done" or prism["state"] != "done":
            raise RuntimeError("serve prewarm failed: "
                               f"{hit.get('error') or prism.get('error')}")
        stored = server.stored_sddf(prism["run_key"]).read_bytes()
    except BaseException:
        server.kill()
        raise
    return server, {
        "hit_spec": hit_spec,
        "hit_events": hit["point"]["events"],
        "result_job": prism["job"],
        "result_digest": hashlib.sha256(stored).hexdigest(),
        "result_records": prism["point"]["events"],
        "result_bytes": len(stored),
    }


def _check_accounting(ctx: common.Context, server: Server, mix: dict,
                      prewarm_runs: int = 2) -> dict:
    """Server counters must match what the clients did."""
    from repro.serve.client import ServeClient

    status = ServeClient(server.url).status()
    counters = status["counters"]
    expected_exec = prewarm_runs + mix["fresh_accepted"]
    if counters["executed"] != expected_exec:
        ctx.fail(f"serve executed {counters['executed']} runs, expected "
                 f"{expected_exec} (prewarm + fresh submissions)")
    if counters["cache_hits"] != len(mix["hit"]):
        ctx.fail(f"serve answered {counters['cache_hits']} cache hits, "
                 f"clients saw {len(mix['hit'])}")
    return counters


def _check_pinned(ctx: common.Context, prewarm: dict) -> None:
    pinned = common.pinned_digests(ctx.sim_seed).get("prism_C")
    if pinned is not None and pinned != prewarm["result_digest"]:
        ctx.fail("prism_C: served run's bytes differ from the pinned digest")


def _account(ctx: common.Context, mix: dict) -> None:
    ctx.attempted += mix["attempted"]
    ctx.failed += mix["failed"]
    for error in mix["errors"]:
        ctx.note(error)


def _latency_report(mix: dict) -> dict:
    ms = 1000.0
    out = {}
    for cls in ("hit", "fresh", "result"):
        values = mix[cls]
        out[f"{cls}_samples"] = len(values)
        out[f"{cls}_p50_ms"] = percentile(values, 0.50) * ms
        out[f"{cls}_p90_ms"] = percentile(values, 0.90) * ms
        out[f"{cls}_p99_ms"] = percentile(values, 0.99) * ms
    completed = mix["attempted"] - mix["failed"]
    out["requests_per_s"] = completed / mix["wall_s"]
    # Trace records delivered per second, from the median cycle time:
    # every cycle delivers one result body and one fresh run, and the
    # median ignores a cycle stalled by outside load.
    out["cycles"] = len(mix["cycles"])
    cycle_s = statistics.median(mix["cycles"]) if mix["cycles"] else math.nan
    out["cycle_p50_ms"] = cycle_s * ms
    out["records_per_s"] = CLIENTS * mix["records_per_cycle"] / cycle_s
    return out


def run(ctx: common.Context) -> dict:
    servers = []
    try:
        if ctx.trace:
            return _traced(ctx, servers)
        setups = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            server, prewarm = boot_and_prewarm(ctx, f"setup{rep}")
            setups.append(time.perf_counter() - start)
            servers.append(server)
            _check_pinned(ctx, prewarm)
            if rep < SETUP_REPEATS - 1:
                server.stop()
        ctx.report["setup_samples_s"] = setups
        mix = run_mix(server, prewarm, ctx.sim_seed, ctx.seconds)
        _account(ctx, mix)
        counters = _check_accounting(ctx, server, mix)
        latency = _latency_report(mix)
        ctx.report["serve"] = dict(latency, counters=counters)
        return {
            "setup_s": statistics.median(setups),
            "records_per_s": latency["records_per_s"],
            "unit_ms": latency["cycle_p50_ms"],
        }
    finally:
        for server in servers:
            server.stop()


def _traced(ctx: common.Context, servers: list) -> dict:
    """Half the time untraced, half against a server with spans."""
    import spans

    half = ctx.seconds / 2.0
    server, prewarm = boot_and_prewarm(ctx, "plain")
    servers.append(server)
    _check_pinned(ctx, prewarm)
    plain = run_mix(server, prewarm, ctx.sim_seed, half)
    _account(ctx, plain)
    _check_accounting(ctx, server, plain)
    server.stop()

    spans_path = str(ctx.workdir / "serve-spans.json")
    server, prewarm = boot_and_prewarm(ctx, "traced", spans_path)
    servers.append(server)
    traced = run_mix(server, prewarm, ctx.sim_seed, half)
    _account(ctx, traced)
    counters = _check_accounting(ctx, server, traced)
    from repro.serve.client import ServeClient

    cache_session = ServeClient(server.url).cache_stats()["session"]
    server.stop()

    server_totals = json.loads(Path(spans_path).read_text())["spans"]
    worker_dumps = [
        json.loads(p.read_text()) for p in sorted(Path(spans_path).parent.glob(
            Path(spans_path).name + ".worker-*"))]
    worker_totals = spans.merge_totals(*(d["spans"] for d in worker_dumps))
    client_calls = sum(
        n for d in worker_dumps for name, n in d["calls"].items()
        if spans.layer_of(name) == "pfs.client")
    server_layers = spans.layer_totals(server_totals)
    worker_layers = spans.layer_totals(worker_totals)
    # The ledger closes over client thread time: every client thread is
    # inside an HTTP call, sleeping between ``wait`` polls, or in the
    # benchmark's own glue.  Server-side handler spans are nested inside
    # the HTTP calls; the rest of those calls is transport.
    thread_s = traced["active_s"]
    handler_s = sum(server_layers.values())
    ledger_layers = dict(server_layers)
    ledger_layers["serve.transport"] = traced["http_s"] - handler_s
    ledger_layers["serve.poll_wait"] = traced["wait_s"]
    plain_rate = plain["attempted"] / plain["wall_s"]
    traced_rate = traced["attempted"] / traced["wall_s"]
    ledger = common.ledger(ledger_layers, thread_s, thread_s)
    ledger["overhead"] = plain_rate / traced_rate if traced_rate else 0.0
    ledger["worker_layers_s"] = worker_layers
    if ledger_layers["serve.transport"] < 0:
        ctx.fail("server-side spans exceed the client-observed HTTP time")
    spans.dump(ctx.artifact("spans.json"), {
        "workload": "serve-mix", "ledger": ledger,
        "server_spans": server_totals, "worker_spans": worker_totals,
    })
    ctx.report["ledger"] = ledger

    latency = _latency_report(plain)
    lookups = cache_session["hits"] + cache_session["misses"]
    out = common.zero_layers()
    out.update({
        "sim.self_s": worker_layers.get("sim", 0.0),
        "apps.self_s": worker_layers.get("apps", 0.0),
        "pfs.client.calls": client_calls,
        "pfs.client.self_s": worker_layers.get("pfs.client", 0.0),
        "pfs.datapath.self_s": worker_layers.get("pfs.datapath", 0.0),
        "pablo.sddf.write_s": server_layers.get("pablo.sddf.write", 0.0),
        "pablo.sddf.write_mb_per_s": (
            len(traced["result"]) * prewarm["result_bytes"] / 1e6
            / server_layers["pablo.sddf.write"]
            if server_layers.get("pablo.sddf.write") else 0.0),
        "pablo.sddf.read_s": server_layers.get("pablo.sddf.read", 0.0),
        "pablo.sddf.read_records_per_s": (
            len(traced["result"]) * prewarm["result_records"]
            / server_layers["pablo.sddf.read"]
            if server_layers.get("pablo.sddf.read") else 0.0),
        "cache.store_s": worker_layers.get("cache.store", 0.0),
        "cache.load_s": server_layers.get("cache.load", 0.0),
        "cache.peek_s": server_layers.get("cache.peek", 0.0),
        "cache.hit_ratio": cache_session["hits"] / lookups if lookups else 0.0,
        "serve.http.self_s": server_layers.get("serve.http", 0.0),
        "serve.jobs.self_s": server_layers.get("serve.jobs", 0.0),
        "serve.hit_submit_ms": latency["hit_p50_ms"],
        "serve.fresh_submit_ms": percentile(plain["fresh_submit"], 0.5) * 1e3,
        "serve.hit_p90_ms": latency["hit_p90_ms"],
        "serve.hit_p99_ms": latency["hit_p99_ms"],
        "serve.fresh_p50_ms": latency["fresh_p50_ms"],
        "serve.fresh_p90_ms": latency["fresh_p90_ms"],
        "serve.result_p50_ms": latency["result_p50_ms"],
        "serve.result_p90_ms": latency["result_p90_ms"],
        "serve.requests_per_s": latency["requests_per_s"],
        "serve.polls_per_fresh": (
            plain["polls"] / len(plain["fresh"]) if plain["fresh"] else 0.0),
        "serve.result_bytes": prewarm["result_bytes"],
        "serve.executed": counters["executed"],
        "serve.cache_hits": counters["cache_hits"],
        "serve.dedup_hits": counters["dedup_hits"],
        "serve.retries": counters["retries"],
        "serve.worker_crashes": counters["worker_crashes"],
        "ledger.coverage": ledger["coverage"],
        "trace.overhead": ledger["overhead"],
    })
    ctx.report["serve"] = dict(latency, counters=counters)
    return out
