"""The ``paper-cold`` and ``paper-warm`` workloads.

Both resolve the six paper runs (ESCAT A/B/C on ethylene, PRISM A/B/C
on the test problem) at paper scale through the repo's public entry
points, one *pass* at a time, until the measuring time is used up.

- ``paper-cold``: each pass resolves every run through
  ``plan_run(...).fetch_or_run()`` against an empty throwaway cache,
  so each run simulates and then stores its SDDF trace.
- ``paper-warm``: set-up fills a throwaway cache with the six runs;
  each pass drops the in-process memo, reloads the six runs through
  the runner helpers and regenerates Tables 1, 2, 4 and 5.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

RUNS = (("escat", "A"), ("escat", "B"), ("escat", "C"),
        ("prism", "A"), ("prism", "B"), ("prism", "C"))

TABLES = ("table1", "table2", "table4", "table5")

#: paper-warm fills its cache with one process per group, balanced so
#: both take about the same time.
FILL_GROUPS = (("escat_A", "prism_A", "prism_C"),
               ("escat_B", "escat_C", "prism_B"))


def run_label(kind: str, version: str) -> str:
    return f"{kind}_{version}"


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trace_digest(trace) -> str:
    from repro.pablo.sddf import write_sddf

    buf = io.StringIO()
    write_sddf(trace, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class PaperBench:
    """Shared state of one paper workload run."""

    def __init__(self, ctx: common.Context) -> None:
        from repro.experiments import runner

        self.ctx = ctx
        self.sim_seed = ctx.sim_seed
        self.runner = runner
        self.plans = {
            run_label(kind, v): runner.plan_run(kind, v, seed=self.sim_seed)
            for kind, v in RUNS
        }
        self.pinned = common.pinned_digests(self.sim_seed)
        #: The bytes every later pass must reproduce, by run label.
        self.reference = {}
        self.telemetry = []

    def use_cache_dir(self, path: Path) -> None:
        path.mkdir(parents=True, exist_ok=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)

    def stored_path(self, label: str) -> Path:
        from repro.experiments import cache

        key = self.plans[label].key
        return cache.cache_dir() / key[:2] / f"{key}.sddf"

    def check_digest(self, label: str, digest: str, source: str) -> bool:
        """Compare ``digest`` with the pinned and the reference bytes."""
        ok = True
        pinned = self.pinned.get(label)
        if pinned is not None and digest != pinned:
            self.ctx.fail(f"{label}: {source} bytes differ from the pinned "
                          f"seed-{self.sim_seed} digest")
            ok = False
        ref = self.reference.setdefault(label, digest)
        if digest != ref:
            self.ctx.fail(f"{label}: {source} bytes differ from the "
                          "first fresh run")
            ok = False
        return ok

    # -- paper-cold ------------------------------------------------------
    def cold_pass(self, index: int) -> dict:
        """Simulate and store the six runs into an empty cache."""
        from repro.experiments import cache

        self.use_cache_dir(self.ctx.workdir / f"cold-pass-{index}")
        before = cache.session_stats()
        per_run = {}
        records = 0
        start = time.perf_counter()
        for label, plan in self.plans.items():
            t0 = time.perf_counter()
            try:
                result = plan.fetch_or_run()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.ctx.attempt(False, f"{label}: {type(exc).__name__}: {exc}")
                continue
            per_run[label] = time.perf_counter() - t0
            records += len(result.trace)
            if result.telemetry:
                self.telemetry.append(result.telemetry)
        wall = time.perf_counter() - start
        after = cache.session_stats()
        written = 0
        for label in per_run:
            path = self.stored_path(label)
            if not path.exists():
                self.ctx.attempt(False, f"{label}: no trace was stored")
                continue
            written += path.stat().st_size
            self.ctx.attempt(self.check_digest(label, _file_digest(path),
                                               "fresh"))
        shutil.rmtree(self.ctx.workdir / f"cold-pass-{index}",
                      ignore_errors=True)
        return {
            "wall_s": wall,
            "records": records,
            "per_run_s": per_run,
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
            "sddf_bytes_written": written,
        }

    # -- paper-warm ------------------------------------------------------
    def fill(self) -> float:
        """Simulate and store the six runs (paper-warm's set-up), split
        over one fresh interpreter per core."""
        cache_dir = self.ctx.workdir / "warm-cache"
        self.use_cache_dir(cache_dir)
        groups = FILL_GROUPS if (os.cpu_count() or 1) > 1 else (
            tuple(label for group in FILL_GROUPS for label in group),)
        env = common.child_env(cache_dir)
        start = time.perf_counter()
        procs = []
        try:
            for group in groups:
                procs.append(subprocess.Popen(
                    [sys.executable, str(common.HERE / "setup_probe.py"),
                     str(self.sim_seed), *group],
                    env=env, cwd=str(common.ROOT)))
            for proc in procs:
                if proc.wait(timeout=600) != 0:
                    raise RuntimeError("paper-warm cache fill failed")
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        wall = time.perf_counter() - start
        for label in self.plans:
            self.check_digest(label, _file_digest(self.stored_path(label)),
                              "fresh")
        return wall

    def bind_table_seed(self) -> None:
        """Point the table modules at the benchmark's simulator seed.

        Tables 1, 2, 4 and 5 resolve their runs through
        ``escat_result``/``prism_result`` at the default seed; the
        benchmark rebinds those names (where the table modules look
        them up) to the same helpers at its own seed.
        """
        from repro.experiments import escat_tables, prism_tables

        runner = self.runner
        seed = self.sim_seed

        def escat_result(version, fast=False):
            return runner.escat_result(version, fast=fast, seed=seed)

        def prism_result(version, fast=False):
            return runner.prism_result(version, fast=fast, seed=seed)

        escat_tables.escat_result = escat_result
        prism_tables.prism_result = prism_result

    def warm_pass(self, check_bytes: bool) -> dict:
        """Reload the six runs and regenerate the four tables."""
        from repro.experiments import cache, escat_tables, prism_tables

        runner = self.runner
        runner.clear_cache()
        before = cache.session_stats()
        per_run = {}
        records = 0
        loaded = {}
        tables = {}
        start = time.perf_counter()
        for kind, version in RUNS:
            label = run_label(kind, version)
            helper = runner.escat_result if kind == "escat" else runner.prism_result
            t0 = time.perf_counter()
            try:
                result = helper(version, seed=self.sim_seed)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.ctx.attempt(False, f"{label}: {type(exc).__name__}: {exc}")
                continue
            per_run[label] = time.perf_counter() - t0
            records += len(result.trace)
            loaded[label] = result
        t_tables = time.perf_counter()
        for name in TABLES:
            module = escat_tables if name in ("table1", "table2") else prism_tables
            try:
                tables[name] = getattr(module, name)()[1]
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.ctx.attempt(False, f"{name}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        after = cache.session_stats()
        for label, result in loaded.items():
            ok = True
            if check_bytes:
                ok = self.check_digest(label, _trace_digest(result.trace),
                                       "reloaded")
            self.ctx.attempt(ok)
        for name, text in tables.items():
            ref = self.reference.setdefault(name, text)
            self.ctx.attempt(text == ref, None if text == ref else
                             f"{name}: text differs between passes")
        return {
            "wall_s": end - start,
            "records": records,
            "per_run_s": per_run,
            "tables_s": end - t_tables,
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
        }


def _end_to_end(setup_s: float, passes: list) -> dict:
    """The unit of work is one pass: the six paper runs resolved, as
    ``repro all`` does on a cold or a warm cache."""
    return {
        "setup_s": setup_s,
        "records_per_s": statistics.median(
            p["records"] / p["wall_s"] for p in passes),
        "unit_ms": 1000.0 * statistics.median(p["wall_s"] for p in passes),
    }


def _measure(one_pass, deadline: float) -> list:
    """Passes until the measuring time is used up; at least one."""
    passes = [one_pass(0)]
    while time.perf_counter() < deadline:
        passes.append(one_pass(len(passes)))
    return passes


def _escat_a_s(passes: list) -> float:
    return statistics.median(p["per_run_s"].get("escat_A", math.nan)
                             for p in passes)


def run_cold(ctx: common.Context) -> dict:
    setup_start = time.perf_counter()
    setup_s = common.import_setup_s(ctx)
    bench = PaperBench(ctx)
    ctx.report["setup_detail"] = {"import_median_s": setup_s}
    begin = time.perf_counter()
    ctx.report["setup_wall_s"] = begin - setup_start
    deadline = begin + ctx.seconds
    if not ctx.trace:
        passes = _measure(bench.cold_pass, deadline)
        ctx.report["passes"] = passes
        ctx.report["escat_A_s"] = _escat_a_s(passes)
        return _end_to_end(setup_s, passes)
    return _traced(ctx, bench, bench.cold_pass, "paper-cold")


def run_warm(ctx: common.Context) -> dict:
    setup_start = time.perf_counter()
    import_s = common.import_setup_s(ctx)
    bench = PaperBench(ctx)
    bench.bind_table_seed()
    fill_s = bench.fill()
    setup_s = import_s + fill_s
    ctx.report["setup_detail"] = {"import_median_s": import_s,
                                  "fill_s": fill_s}
    begin = time.perf_counter()
    ctx.report["setup_wall_s"] = begin - setup_start
    deadline = begin + ctx.seconds
    if not ctx.trace:
        passes = _measure(
            lambda i: bench.warm_pass(check_bytes=(i == 0)), deadline)
        ctx.report["passes"] = passes
        ctx.report["escat_A_s"] = _escat_a_s(passes)
        return _end_to_end(setup_s, passes)
    return _traced(ctx, bench,
                   lambda i: bench.warm_pass(check_bytes=(i == 0)),
                   "paper-warm")


def _traced(ctx: common.Context, bench: PaperBench, one_pass,
            workload: str) -> dict:
    """One untraced pass, then one pass with every span installed."""
    import spans
    from repro import telemetry
    from repro.experiments import runner

    plain = one_pass(0)
    patches = spans.Patches()
    spans.install_simulation(patches)
    spans.install_storage(patches)
    spans.install_tables(patches)
    telemetry.set_enabled(True)
    spans.RECORDER.reset()
    bench.telemetry.clear()
    try:
        traced = one_pass(1)
    finally:
        telemetry.set_enabled(None)
        patches.undo()
        runner.clear_cache()
    totals = spans.RECORDER.totals()
    ledger = common.ledger(spans.layer_totals(totals), traced["wall_s"],
                           plain["wall_s"])
    spans.dump(ctx.artifact("spans.json"),
               {"workload": workload, "ledger": ledger,
                "untraced_pass": plain, "traced_pass": traced})
    ctx.report["ledger"] = ledger
    ctx.report["passes"] = [plain, traced]
    return paper_layers(bench, plain, traced, totals, ledger)


def paper_layers(bench: PaperBench, plain: dict, traced: dict,
                 totals: dict, ledger: dict) -> dict:
    """Per-layer metrics of one traced paper pass."""
    import spans

    layers = spans.layer_totals(totals)
    tele = bench.telemetry
    engine_events = sum(t["engine"]["events"] for t in tele)
    batches = sum(t["app"]["batches_submitted"] for t in tele)
    dps = [t["datapath"] for t in tele if t.get("datapath")]
    span_bytes = sum(d["span_bytes"] for d in dps)
    fallback_bytes = sum(d["fallback_bytes"] for d in dps)

    def self_of(name):
        row = totals.get(name)
        return row["self_s"] if row else 0.0

    client_calls = sum(
        n for name, n in spans.RECORDER.calls.items()
        if spans.layer_of(name) == "pfs.client")
    read_s = layers.get("pablo.sddf.read", 0.0)
    write_s = layers.get("pablo.sddf.write", 0.0)
    lookups = traced["hits"] + traced["misses"]
    records_read = traced["records"] if traced["hits"] else 0
    out = common.zero_layers()
    out.update({
        "sim.events": engine_events,
        "sim.self_s": layers.get("sim", 0.0),
        "apps.self_s": layers.get("apps", 0.0),
        "apps.batches": batches,
        "pfs.client.calls": client_calls,
        "pfs.client.self_s": layers.get("pfs.client", 0.0),
        "pfs.datapath.self_s": layers.get("pfs.datapath", 0.0),
        "pfs.datapath.revocations": sum(d["revocations"] for d in dps),
        "pfs.datapath.span_byte_share": (
            span_bytes / (span_bytes + fallback_bytes)
            if span_bytes + fallback_bytes else 0.0),
        "pablo.tracer.finish_s": self_of("pablo.tracer:finish"),
        "pablo.sddf.write_s": write_s,
        "pablo.sddf.write_mb_per_s": (
            traced.get("sddf_bytes_written", 0) / 1e6 / write_s
            if write_s else 0.0),
        "pablo.sddf.read_s": read_s,
        "pablo.sddf.read_records_per_s": (
            records_read / read_s if read_s else 0.0),
        "cache.store_s": layers.get("cache.store", 0.0),
        "cache.load_s": layers.get("cache.load", 0.0),
        "cache.peek_s": layers.get("cache.peek", 0.0),
        "cache.hit_ratio": traced["hits"] / lookups if lookups else 0.0,
        "core.self_s": layers.get("core", 0.0),
        "ledger.coverage": ledger["coverage"],
        "trace.overhead": ledger["overhead"],
    })
    for label, seconds in plain["per_run_s"].items():
        out[f"runner.{label}_s"] = seconds
    return out
