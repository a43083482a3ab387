"""Shared plumbing for the benchmark workloads: run context, metric
names, pinned digests, the import probe and the layer ledger."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Metrics every untraced run reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("unit_ms", "ms"),
)

#: Metrics every traced run reports: (name, unit).  A layer that does
#: no work on a workload reports 0.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("apps.self_s", "s"),
    ("apps.batches", "count"),
    ("runner.escat_A_s", "s"),
    ("runner.escat_B_s", "s"),
    ("runner.escat_C_s", "s"),
    ("runner.prism_A_s", "s"),
    ("runner.prism_B_s", "s"),
    ("runner.prism_C_s", "s"),
    ("pfs.client.calls", "count"),
    ("pfs.client.self_s", "s"),
    ("pfs.datapath.self_s", "s"),
    ("pfs.datapath.revocations", "count"),
    ("pfs.datapath.span_byte_share", "ratio"),
    ("pablo.tracer.finish_s", "s"),
    ("pablo.sddf.write_s", "s"),
    ("pablo.sddf.write_mb_per_s", "MB/s"),
    ("pablo.sddf.read_s", "s"),
    ("pablo.sddf.read_records_per_s", "1/s"),
    ("cache.store_s", "s"),
    ("cache.load_s", "s"),
    ("cache.peek_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("core.self_s", "s"),
    ("serve.http.self_s", "s"),
    ("serve.jobs.self_s", "s"),
    ("serve.hit_submit_ms", "ms"),
    ("serve.fresh_submit_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.fresh_p90_ms", "ms"),
    ("serve.result_p50_ms", "ms"),
    ("serve.result_p90_ms", "ms"),
    ("serve.requests_per_s", "1/s"),
    ("serve.polls_per_fresh", "count"),
    ("serve.result_bytes", "bytes"),
    ("serve.executed", "count"),
    ("serve.cache_hits", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.retries", "count"),
    ("serve.worker_crashes", "count"),
    ("ledger.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

UNITS = dict(END_TO_END + PER_LAYER)


def zero_layers() -> dict:
    return {name: 0.0 for name, _ in PER_LAYER}


def ledger_spec() -> dict:
    with open(HERE / "ledger.json") as stream:
        return json.load(stream)


def pinned_digests(sim_seed: int) -> dict:
    """SDDF SHA-256 per run label, pinned for the default seed only."""
    with open(HERE / "digests.json") as stream:
        pinned = json.load(stream)
    if sim_seed != pinned["seed"]:
        return {}
    return pinned["sddf_sha256"]


class Context:
    """One benchmark invocation: arguments, scratch space, outcome."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, workdir: Path, artifacts: Path) -> None:
        self.workload = workload
        self.seed = seed
        #: The simulator seed is the benchmark seed itself.
        self.sim_seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.artifacts = artifacts
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.report = {}

    def attempt(self, ok: bool, error: str = None) -> None:
        """Count one operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if error:
                self.note(error)

    def fail(self, error: str) -> None:
        """Record a correctness defect that fails the whole run."""
        self.note(error)
        self.report["defects"] = self.report.get("defects", 0) + 1

    def note(self, error: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(error)

    def artifact(self, name: str) -> Path:
        return self.artifacts / f"{self.workload}-seed{self.seed}-{name}"


def child_env(cache_dir: Path) -> dict:
    """The environment of a child process: ``REPRO_*`` stripped, then
    the throwaway cache directory set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_setup_s(ctx: Context, repeats: int = 3) -> float:
    """Median wall of a fresh interpreter importing the stack and
    planning the six paper runs (the cold-start part of set-up)."""
    samples = []
    env = child_env(ctx.workdir / "probe-cache")
    for _ in range(repeats):
        start = time.perf_counter()
        # A plain blocking wait: ``subprocess.run(timeout=...)`` polls
        # with sleeps, which would quantize the measurement.
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(ctx.sim_seed)],
            env=env, cwd=str(ROOT), stdout=subprocess.DEVNULL,
        ) as proc:
            code = proc.wait()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
    return statistics.median(samples)


def ledger(layers: dict, traced_wall: float, plain_wall: float) -> dict:
    """Shares of the traced wall per layer, and the closure check."""
    spec = ledger_spec()
    covered = sum(layers.values())
    coverage = covered / traced_wall if traced_wall > 0 else 0.0
    tolerance = spec["closure_tolerance"]
    return {
        "wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "overhead": traced_wall / plain_wall if plain_wall > 0 else 0.0,
        "layers_s": dict(sorted(layers.items())),
        "shares": {k: v / traced_wall for k, v in sorted(layers.items())}
        if traced_wall > 0 else {},
        "coverage": coverage,
        "tolerance": tolerance,
        "closed": abs(1.0 - coverage) <= tolerance,
    }
