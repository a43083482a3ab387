"""Repo benchmark: paper-cold, paper-warm and serve-mix.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-cold --seed 1996 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics and the layer
ledger.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report.  Scratch state lives in a throwaway
directory under ``.perfbench/`` in the checkout, which also receives
the run's manifest and span files.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-cold", "paper-warm", "serve-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _check_checkout() -> dict:
    """The program must be in this checkout; never fall back to an
    installed copy."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro package under {ROOT}; "
                         "run from the root of a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"perfbench: {spec_path} is missing")
    return json.loads(spec_path.read_text())


def _isolate_environment(workdir: Path) -> None:
    """Strip every ``REPRO_*`` variable, then point the run cache at a
    throwaway directory so ``~/.cache/repro`` is never touched."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    sys.path.insert(0, str(ROOT / "src"))


def _git_commit():
    """The checkout's commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _manifest(args, flags_resolved) -> dict:
    return {
        "git_commit": _git_commit(),
        "flags": flags_resolved,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def _readable(workload: str, metrics: dict, report: dict, error_rate: float):
    """Print the workload's user-facing figures, each with its unit."""
    rows = [("setup_s", metrics.get("setup_s"), "s")]
    serve = report.get("serve")
    if workload.startswith("paper"):
        rows += [("records_per_s", metrics.get("records_per_s"), "1/s"),
                 ("pass_s", metrics["unit_ms"] / 1000.0
                  if "unit_ms" in metrics else None, "s"),
                 ("escat_A_s", report.get("escat_A_s"), "s")]
    elif serve:
        for cls in ("hit", "fresh", "result"):
            rows += [(f"{cls}_p50_ms", serve[f"{cls}_p50_ms"], "ms"),
                     (f"{cls}_p90_ms", serve[f"{cls}_p90_ms"], "ms"),
                     (f"{cls}_samples", serve[f"{cls}_samples"], "count")]
        rows += [("requests_per_s", serve["requests_per_s"], "1/s"),
                 ("records_per_s", serve["records_per_s"], "1/s")]
    rows.append(("error_rate", error_rate, "ratio"))
    for name, value, unit in rows:
        if value is not None:
            print(f"  {name:<16} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    spec = _check_checkout()
    stamp = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    artifacts = ROOT / ".perfbench"
    workdir = artifacts / f"work-{stamp}"
    workdir.mkdir(parents=True)
    _isolate_environment(workdir)

    def _terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    import common

    import repro
    from repro import flags

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         "not from this checkout")
    ctx = common.Context(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir, artifacts)
    manifest = _manifest(args, flags.resolved())
    started = time.perf_counter()
    try:
        if args.workload == "serve-mix":
            import serve_mix

            metrics = serve_mix.run(ctx)
        else:
            import paper

            runner = paper.run_cold if args.workload == "paper-cold" \
                else paper.run_warm
            metrics = runner(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(wanted)}")
    attempted = max(ctx.attempted, 1)
    defects = ctx.report.get("defects", 0)
    ledger = ctx.report.get("ledger")
    correct = (ctx.failed == 0 and defects == 0
               and all(math.isfinite(v) for v in metrics.values())
               and (ledger is None or ledger["closed"]))
    error_rate = ctx.failed / attempted

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} wall={time.perf_counter() - started:.1f}s")
    _readable(args.workload, metrics, ctx.report, error_rate)
    if ledger:
        print(f"  ledger: coverage {ledger['coverage']:.4f} "
              f"(tolerance {ledger['tolerance']}), tracing overhead "
              f"{ledger['overhead']:.2f}x")
        for layer, share in sorted(ledger["shares"].items(),
                                   key=lambda kv: -kv[1]):
            print(f"    {layer:<20} {100.0 * share:6.2f}%")
    for error in ctx.errors:
        print(f"  error: {error}")
    result_path = ctx.artifact("result.json")
    result_path.write_text(json.dumps({
        "manifest": manifest, "metrics": metrics, "report": ctx.report,
        "attempted": ctx.attempted, "failed": ctx.failed,
        "errors": ctx.errors,
    }, indent=1, sort_keys=True, default=str))
    print(f"  manifest: {json.dumps(manifest, sort_keys=True)}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": common.UNITS[name]}
            for name in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
