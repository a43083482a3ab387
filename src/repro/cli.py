"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
``repro list``
    List every reproducible experiment (tables 1-5, figures 1-9).
``repro run <id> [--fast]``
    Regenerate one experiment and print its table/summary.
``repro all [--fast]``
    Regenerate everything (the EXPERIMENTS.md source of truth).
``repro validate [--fast]``
    Score every reproduced claim (shape checks) against fresh runs.
``repro suite [--nodes N]``
    Run the derived synthetic benchmark suite and print a summary.
``repro trace <app> <version> <output.sddf> [--fast]``
    Run an application version and dump its Pablo trace as SDDF.
``repro counters <app> <version> [--top N] [--fast]``
    Darshan-style per-file counter report for an application run.
``repro bench [--quick] [--check] [--serve-output PATH] [--serve-only]``
    Run the batched-datapath suite (emits BENCH_datapath.json) and,
    opt-in, the serve traffic suite.  ``--check`` compares the fresh
    run against the committed ``BENCH_*.json`` baselines and exits
    non-zero on a >15% regression in any in-run speedup ratio or an
    unmet committed criterion.
``repro metrics <app> <version> [--fast] [--top N] [--json PATH]``
    Run one application fresh with telemetry enabled and print the
    run's observability summary (busiest servers/disks, cache
    effectiveness, fault counters); optionally export the snapshot
    as JSON or OpenMetrics text.
``repro cache stats|clear``
    Inspect (entry count, footprint, hit/miss/evict/quarantine
    counters) or empty the on-disk run cache.
``repro chaos [--seed N] [--app escat|prism|both] [--classes LIST] [--plan FILE] [--jobs N]``
    Re-run the version progression under fault injection and report
    which paper-level conclusions survive which fault classes.
``repro sweep run <grid.json> [--journal PATH] [--jobs N] ...``
    Execute a declarative sweep grid under the crash-tolerant engine,
    journaling every point to an append-only JSONL file.
``repro sweep resume <journal> [--jobs N] ...``
    Continue a journaled sweep after a crash or kill; completed points
    are never re-simulated.
``repro sweep status <journal> [--json] [--aggregate PATH]``
    Partial-results report for a journal (and optionally the columnar
    aggregate), without executing anything.  ``--json`` emits the
    machine-readable per-point rows shared with the serve job API.
``repro serve [--host H] [--port P] [--workers N] [--journal PATH]``
    Run the traffic-serving simulation service: repeat queries answer
    from the run cache, fresh runs schedule onto crash-tolerant
    worker processes, and SIGTERM drains gracefully.
``repro submit <kind> <version> [--seed N] [--name ID] [--url U]``
    Submit one run to a serve instance and wait for its result.
``repro jobs [id] [--events] [--url U]``
    List jobs on a serve instance, or stream one job's event feed.

``all`` and ``validate`` accept ``--jobs N`` (prewarm the run cache
with N worker processes) and ``--no-cache`` (force fresh simulations,
ignoring the on-disk run cache).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    for exp_id in sorted(EXPERIMENTS):
        print(f"{exp_id:10s} {EXPERIMENTS[exp_id].description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    print(run_experiment(args.id, fast=args.fast, plot=args.plot))
    return 0


def _apply_cache_flags(args: argparse.Namespace) -> None:
    """Honour ``--no-cache`` / ``--jobs`` before any simulation runs."""
    import os

    if getattr(args, "no_cache", False):
        os.environ["REPRO_CACHE"] = "0"
    jobs = getattr(args, "jobs", 1)
    if jobs > 1:
        from repro.experiments.parallel import prewarm

        prewarm(jobs, fast=args.fast)


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.experiments import list_experiments, run_experiment

    _apply_cache_flags(args)
    for exp_id in list_experiments():
        print(run_experiment(exp_id, fast=args.fast))
        print()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validate import validate_all

    _apply_cache_flags(args)
    card = validate_all(fast=args.fast)
    print(card.render())
    return 0 if card.all_passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.experiments import perfbench

    if args.serve_only and not args.serve_output:
        raise ReproError(
            "--serve-only needs a --serve-output path"
        )
    datapath_output = "" if args.serve_only else args.datapath_output
    for output in (datapath_output, args.serve_output):
        out_dir = os.path.dirname(output) or "."
        if output and not os.path.isdir(out_dir):
            # Fail before spending half a minute benchmarking.
            raise ReproError(f"output directory does not exist: {out_dir}")
    baselines = {}
    if args.check:
        # Load baselines *before* the fresh reports overwrite them:
        # the default output paths are the committed baseline paths.
        if datapath_output:
            baselines["datapath"] = perfbench.load_report(
                args.datapath_baseline
            )
        if args.serve_output:
            baselines["serve"] = perfbench.load_report(
                args.serve_baseline
            )
    dp_payload = None
    if datapath_output:
        dp_payload = perfbench.run_datapath_suite(quick=args.quick)
        perfbench.write_report(dp_payload, datapath_output)
        print(perfbench.render_datapath(dp_payload))
        print(f"wrote {datapath_output}")
    serve_payload = None
    if args.serve_output:
        from repro.serve import loadgen

        serve_payload = loadgen.run_serve_suite(quick=args.quick)
        perfbench.write_report(serve_payload, args.serve_output)
        print(loadgen.render_serve(serve_payload))
        print(f"wrote {args.serve_output}")
    if not args.check:
        return 0
    failed = False
    for current, baseline in (
        (dp_payload, baselines.get("datapath")),
        (serve_payload, baselines.get("serve")),
    ):
        if current is None or baseline is None:
            continue
        report = perfbench.check_regressions(current, baseline)
        print(perfbench.render_check(report))
        failed = failed or report["regressed"]
        # Absolute gate: the committed baseline's own criteria must
        # hold on the fresh run, not just "no worse than committed".
        criteria = perfbench.check_criteria(current, baseline)
        print(perfbench.render_criteria(criteria))
        if criteria["unmet"]:
            if args.allow_red_baseline:
                print("warning: unmet criteria acknowledged"
                      " (--allow-red-baseline)")
            else:
                failed = True
    return 1 if failed else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import telemetry

    if args.app == "diff":
        if not args.second:
            raise ReproError(
                "usage: repro metrics diff <a.json> <b.json>"
            )
        a = telemetry.load_snapshot(args.version)
        b = telemetry.load_snapshot(args.second)
        diff = telemetry.snapshot_diff(a, b)
        print(telemetry.render_diff(diff, args.version, args.second))
        if args.json:
            import json as _json

            with open(args.json, "w") as stream:
                _json.dump(diff, stream, indent=2)
                stream.write("\n")
            print(f"wrote {args.json}")
        return 0
    if args.version not in ("A", "B", "C"):
        raise ReproError(
            f"unknown version {args.version!r} (expected A, B, or C)"
        )
    from repro.apps import (
        ETHYLENE,
        PRISM_TEST,
        run_escat,
        run_prism,
        scaled_escat_problem,
        scaled_prism_problem,
    )

    # Telemetry lives only on fresh runs (cached entries carry the
    # trace, not the instrument state), so this always re-simulates.
    telemetry.set_enabled(True)
    if args.resolution is not None:
        telemetry.set_sample_resolution(args.resolution)
    try:
        if args.app == "escat":
            problem = (
                scaled_escat_problem(n_nodes=16, records_per_channel=32)
                if args.fast else ETHYLENE
            )
            result = run_escat(args.version, problem, seed=args.seed)
        else:
            problem = scaled_prism_problem() if args.fast else PRISM_TEST
            result = run_prism(args.version, problem, seed=args.seed)
    finally:
        telemetry.set_enabled(None)
        telemetry.set_sample_resolution(None)
    snapshot = result.telemetry
    print(f"{result.application} {result.version} ({result.dataset})")
    print(telemetry.render_summary(snapshot, top=args.top))
    if args.json:
        telemetry.write_json(snapshot, args.json)
        print(f"wrote {args.json}")
    if args.openmetrics:
        telemetry.write_openmetrics(snapshot, args.openmetrics)
        print(f"wrote {args.openmetrics}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments import cache

    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} files from {cache.cache_dir()}")
        return 0
    st = cache.stats()
    state = "enabled" if st["enabled"] else "disabled (REPRO_CACHE=0)"
    print(f"run cache at {st['dir']} ({state})")
    cap = (
        f"{st['max_bytes'] / 1024**2:.0f} MiB cap" if st["max_bytes"] > 0
        else "uncapped"
    )
    print(
        f"  entries: {st['entries']} "
        f"({st['bytes'] / 1024**2:.1f} MiB, {cap})"
    )
    for title, counters in (
        ("since creation", st["since_creation"]),
        ("this process", st["session"]),
    ):
        lookups = counters["hits"] + counters["misses"]
        rate = 100.0 * counters["hits"] / lookups if lookups else 0.0
        print(
            f"  {title}: {counters['hits']} hits / "
            f"{counters['misses']} misses ({rate:.1f}%), "
            f"{counters['stores']} stores, "
            f"{counters['evictions']} evictions, "
            f"{counters['quarantined']} quarantined"
        )
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.workloads import build_suite, run_workload  # type: ignore[attr-defined]

    suite = build_suite(n_nodes=args.nodes)
    print(f"{'benchmark':34s} {'wall(s)':>9s} {'I/O(node-s)':>12s} {'ops':>7s}")
    for name, workload in suite.items():
        result = run_workload(workload)
        print(
            f"{name:34s} {result.wall_time:9.2f} "
            f"{result.io_node_seconds:12.2f} {len(result.trace):7d}"
        )
    return 0


def _cmd_counters(args: argparse.Namespace) -> int:
    from repro.experiments.runner import escat_result, prism_result
    from repro.pablo import derive_counters, render_counters

    if args.app == "escat":
        result = escat_result(args.version, fast=args.fast)
    elif args.app == "prism":
        result = prism_result(args.version, fast=args.fast)
    else:
        raise ReproError(f"unknown application {args.app!r}")
    print(render_counters(derive_counters(result.trace), top=args.top))
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    from repro.core.bandwidth import render_rates, transfer_rates
    from repro.experiments.runner import escat_result, prism_result

    if args.app == "escat":
        result = escat_result(args.version, fast=args.fast)
    elif args.app == "prism":
        result = prism_result(args.version, fast=args.fast)
    else:
        raise ReproError(f"unknown application {args.app!r}")
    print(render_rates(transfer_rates(result.trace)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments import cache
    from repro.experiments.runner import plan_run
    from repro.pablo import write_sddf

    plan = plan_run(args.app, args.version, fast=args.fast)
    # A stored run's SDDF bytes are the trace write_sddf would produce;
    # stored_entry checks them against the sidecar before they go out.
    entry = cache.stored_entry(plan.key)
    if entry is not None:
        meta, data = entry
        with open(args.output, "wb") as stream:
            stream.write(data)
        events, application, version = (
            meta["events"], meta["application"], meta["version"]
        )
    else:
        # The lookup above missed, so resolve the run without a second.
        result = plan.producer()
        cache.store(plan.key, result)
        write_sddf(result.trace, args.output)
        events, application, version = (
            len(result.trace), result.application, result.version
        )
    print(f"wrote {events} events ({application} {version}) to {args.output}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import chaos_report
    from repro.faults import FaultPlan

    plan = None
    if args.plan:
        plan = FaultPlan.from_file(args.plan)
    classes = None
    if args.classes:
        classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    apps = ("escat", "prism") if args.app == "both" else (args.app,)
    for app in apps:
        report = chaos_report(
            seed=args.seed, app=app, classes=classes, plan=plan,
            timeout=args.timeout, jobs=args.jobs,
        )
        print(report.format())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import sweep

    if args.sweep_command == "status":
        grid, state = sweep.status(args.journal)
        points = grid.expand()
        if args.json:
            import json as _json

            payload = sweep.status_payload(
                points, state.done, state.quarantined,
                grid_name=grid.name,
            )
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(sweep.partial_report(points, state.done,
                                       state.quarantined,
                                       grid_name=grid.name), end="")
        if args.aggregate:
            sweep.write_aggregate(args.aggregate, points, state.done,
                                  state.quarantined, grid_name=grid.name)
            print(f"wrote {args.aggregate}")
        return 0

    if args.sweep_command == "run":
        grid = sweep.SweepGrid.from_file(args.grid)
        journal = args.journal or (
            str(Path(args.grid).with_suffix("")) + ".journal.jsonl"
        )
        outcome = sweep.run_grid(
            grid, journal, jobs=args.jobs, retries=args.retries,
            backoff=args.backoff, timeout=args.timeout,
        )
    else:  # resume
        journal = args.journal
        outcome = sweep.resume(
            journal, jobs=args.jobs, retries=args.retries,
            backoff=args.backoff, timeout=args.timeout,
        )
    # Report from the journal, the single source of truth.
    state = sweep.read_journal(journal)
    grid = sweep.SweepGrid.from_dict(state.grid_spec)
    print(sweep.partial_report(outcome.points, state.done,
                               state.quarantined, grid_name=grid.name),
          end="")
    nonzero = ", ".join(
        f"{name}={value}"
        for name, value in sorted(outcome.telemetry.items()) if value
    )
    print(f"telemetry: {nonzero}")
    print(f"journal: {journal}")
    if args.aggregate:
        sweep.write_aggregate(args.aggregate, outcome.points, state.done,
                              state.quarantined, grid_name=grid.name)
        print(f"wrote {args.aggregate}")
    return 0 if outcome.complete else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve.server import ReproServeServer

    server = ReproServeServer(
        host=args.host, port=args.port, workers=args.workers,
        retries=args.retries, timeout=args.timeout,
        max_queue=args.max_queue, journal=args.journal or None,
    )
    server.start()
    print(f"repro serve listening on {server.url} "
          f"({args.workers} workers)", flush=True)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    stop.wait()
    print("repro serve draining...", flush=True)
    drained = server.stop(drain_timeout=args.drain_timeout)
    print("repro serve stopped"
          + ("" if drained else " (drain timed out)"), flush=True)
    return 0


def _spec_from_args(args: argparse.Namespace) -> dict:
    spec: dict = {"kind": args.kind, "version": args.version,
                  "seed": args.seed}
    if args.fast:
        spec["fast"] = True
    if args.name:
        spec["name"] = args.name
    if args.telemetry:
        spec["telemetry"] = True
    machine = {}
    if args.io_nodes is not None:
        machine["n_io_nodes"] = args.io_nodes
    if args.stripe_size is not None:
        machine["stripe_size"] = args.stripe_size
    if machine:
        spec["machine"] = machine
    return spec


def _print_job(doc: dict) -> None:
    label = f" ({doc['name']})" if doc.get("name") else ""
    extra = ""
    if doc.get("cache_hit"):
        extra = "  [cache hit]"
    elif doc.get("dedup_clients"):
        extra = f"  [dedup x{doc['dedup_clients']}]"
    print(f"{doc['job']}{label}  {doc['state']}{extra}")
    point = doc.get("point") or {}
    if doc["state"] == "done":
        print(
            f"  {point.get('application')} {point.get('app_version')} "
            f"seed={point.get('seed')}  wall_time="
            f"{point.get('wall_time'):.3f}s  events={point.get('events')}"
        )
    elif doc["state"] == "failed":
        print(f"  error: {doc.get('error')}")


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.url, timeout=args.timeout)
    doc = client.submit(_spec_from_args(args))
    if not args.no_wait and doc["state"] not in ("done", "failed"):
        doc = client.wait(doc["job"], timeout=args.timeout)
    _print_job(doc)
    if args.output:
        if doc["state"] != "done":
            raise ReproError(
                f"job {doc['job']} is {doc['state']}; no trace to write"
            )
        result = client.result(doc["job"])
        with open(args.output, "w") as stream:
            stream.write(result["sddf"])
        print(f"wrote {args.output}")
    return 0 if doc["state"] != "failed" else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.url, timeout=args.timeout)
    if args.job:
        if args.events:
            import json as _json

            for record in client.events(args.job):
                print(_json.dumps(record, sort_keys=True))
            return 0
        _print_job(client.job(args.job))
        return 0
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    for doc in jobs:
        _print_job(doc)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        lint_paths,
        render_report,
        render_rules,
        report_payload,
        to_json,
    )

    if args.rules:
        print(render_rules())
        return 0
    paths = args.paths or ["src"]
    scoped = True if args.scope_all else None
    reports = lint_paths(paths, scoped=scoped)
    payload = report_payload(reports)
    if args.output:
        import json as _json

        with open(args.output, "w") as stream:
            _json.dump(payload, stream, indent=2)
            stream.write("\n")
    if args.json:
        print(to_json(reports))
    else:
        print(render_report(reports))
        if args.output:
            print(f"wrote {args.output}")
    return 2 if payload["finding_count"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'I/O Requirements of Scientific Applications: "
            "An Evolutionary View' (HPDC 1996)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list reproducible experiments")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("run", help="regenerate one table/figure")
    p.add_argument("id", help="experiment id (see `repro list`)")
    p.add_argument("--fast", action="store_true",
                   help="use miniature problems (quick demo)")
    p.add_argument("--plot", action="store_true",
                   help="render the figure as a terminal plot")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("all", help="regenerate every table and figure")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="prewarm the run cache with N worker processes")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore the on-disk run cache (fresh simulations)")
    p.set_defaults(fn=_cmd_all)

    p = sub.add_parser(
        "validate", help="score the paper's claims against fresh runs"
    )
    p.add_argument("--fast", action="store_true")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="prewarm the run cache with N worker processes")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore the on-disk run cache (fresh simulations)")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("suite", help="run the synthetic benchmark suite")
    p.add_argument("--nodes", type=int, default=16)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser(
        "counters", help="Darshan-style per-file counter report"
    )
    p.add_argument("app", choices=["escat", "prism"])
    p.add_argument("version", choices=["A", "B", "C"])
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(fn=_cmd_counters)

    p = sub.add_parser(
        "rates", help="achieved transfer rates per mode and size class"
    )
    p.add_argument("app", choices=["escat", "prism"])
    p.add_argument("version", choices=["A", "B", "C"])
    p.add_argument("--fast", action="store_true")
    p.set_defaults(fn=_cmd_rates)

    p = sub.add_parser("trace", help="dump an application trace as SDDF")
    p.add_argument("app", choices=["escat", "prism"])
    p.add_argument("version", choices=["A", "B", "C"])
    p.add_argument("output")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "bench", help="run the in-run performance gate suites"
    )
    p.add_argument("--quick", action="store_true",
                   help="smaller repeats; finishes in under a minute")
    p.add_argument("--datapath-output", default="BENCH_datapath.json",
                   help="data-path report path (empty string skips it)")
    p.add_argument("--check", action="store_true",
                   help="compare against committed baselines; exit 1 "
                        "on a >15%% speedup-ratio regression or an "
                        "unmet committed criterion")
    p.add_argument("--datapath-baseline", default="BENCH_datapath.json",
                   help="data-path baseline report for --check")
    p.add_argument("--allow-red-baseline", action="store_true",
                   help="downgrade unmet committed criteria to a "
                        "warning (acknowledged known-red baseline)")
    p.add_argument("--serve-output", default="", metavar="PATH",
                   help="also run the serve traffic suite and write "
                        "its report here (e.g. BENCH_serve.json; "
                        "boots a local server, so it is opt-in)")
    p.add_argument("--serve-baseline", default="BENCH_serve.json",
                   help="serve baseline report for --check")
    p.add_argument("--serve-only", action="store_true",
                   help="skip the datapath suite; run only the "
                        "serve suite (needs --serve-output)")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "metrics",
        help="run one application with telemetry and print the "
             "summary, or diff two exported snapshots",
    )
    p.add_argument("app", choices=["escat", "prism", "diff"],
                   help="application to run, or 'diff' to compare "
                        "two snapshot JSON files")
    p.add_argument("version",
                   help="application version (A/B/C), or the first "
                        "snapshot path for 'diff'")
    p.add_argument("second", nargs="?", default="",
                   help="second snapshot path (diff only)")
    p.add_argument("--fast", action="store_true",
                   help="scaled-down problem instead of the paper's")
    p.add_argument("--seed", type=int, default=1996)
    p.add_argument("--top", type=int, default=5, metavar="N",
                   help="how many busiest servers to list (default 5)")
    p.add_argument("--resolution", type=float, default=None, metavar="S",
                   help="sampler grid in simulated seconds (default 1.0)")
    p.add_argument("--json", default="", metavar="PATH",
                   help="also write the full snapshot as JSON")
    p.add_argument("--openmetrics", default="", metavar="PATH",
                   help="also write the metrics in OpenMetrics text")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("cache", help="inspect or empty the run cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    q = cache_sub.add_parser("stats", help="entry count, footprint, "
                                           "hit/miss/evict counters")
    q.set_defaults(fn=_cmd_cache)
    q = cache_sub.add_parser("clear", help="delete every cached entry")
    q.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "lint",
        help="determinism static analysis over the sim-affecting packages",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: src)")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable report to stdout")
    p.add_argument("--output", default="",
                   help="also write the JSON report to this path")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--scope-all", action="store_true",
                   help="apply the determinism rules to every file, "
                        "regardless of package (fixture/CI use)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "chaos",
        help="fault-injection validation of the paper's conclusions",
    )
    p.add_argument("--seed", type=int, default=1996,
                   help="fault-plan seed (default 1996)")
    p.add_argument("--app", choices=["escat", "prism", "both"],
                   default="escat")
    p.add_argument("--classes", default="",
                   help="comma-separated fault classes "
                        "(disk,crash,network,slowdown; default all)")
    p.add_argument("--plan", default="",
                   help="JSON fault-plan file (overrides --classes)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run wall-clock guard in real seconds")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="dispatch the chaos cells across N sweep-engine "
                        "workers (needs the run cache)")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "sweep", help="crash-tolerant journaled parameter sweeps"
    )
    sweep_sub = p.add_subparsers(dest="sweep_command", required=True)

    def _sweep_exec_args(q) -> None:
        q.add_argument("--jobs", type=int, default=2, metavar="N",
                       help="worker processes (default 2; 1 = serial "
                            "in-process)")
        q.add_argument("--retries", type=int, default=2, metavar="N",
                       help="per-point retry budget (default 2)")
        q.add_argument("--backoff", type=float, default=0.05, metavar="S",
                       help="retry backoff base in real seconds, doubled "
                            "per attempt (default 0.05)")
        q.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-point wall-clock guard in real seconds")
        q.add_argument("--aggregate", default="", metavar="PATH",
                       help="also write the columnar aggregate JSON")

    q = sweep_sub.add_parser(
        "run", help="execute a grid spec with a fresh journal"
    )
    q.add_argument("grid", help="JSON grid-spec file (see docs/sweeps.md)")
    q.add_argument("--journal", default="", metavar="PATH",
                   help="journal path (default: <grid>.journal.jsonl)")
    _sweep_exec_args(q)
    q.set_defaults(fn=_cmd_sweep)

    q = sweep_sub.add_parser(
        "resume", help="continue a journaled sweep after a crash/kill"
    )
    q.add_argument("journal", help="journal written by `repro sweep run`")
    _sweep_exec_args(q)
    q.set_defaults(fn=_cmd_sweep)

    q = sweep_sub.add_parser(
        "status", help="partial-results report for a journal"
    )
    q.add_argument("journal")
    q.add_argument("--json", action="store_true",
                   help="machine-readable status (the same per-point "
                        "rows the serve job API returns)")
    q.add_argument("--aggregate", default="", metavar="PATH",
                   help="also write the columnar aggregate JSON")
    q.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the traffic-serving simulation service "
             "(cache-backed, journaled, crash-tolerant workers)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="simulation worker processes (default 2)")
    p.add_argument("--retries", type=int, default=1, metavar="N",
                   help="per-job retry budget (default 1)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-job wall-clock guard in real seconds")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="fresh-job backlog bound; beyond it submissions "
                        "get HTTP 503 (default 64)")
    p.add_argument("--journal", default="", metavar="PATH",
                   help="job journal path (enables restart recovery)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="S",
                   help="graceful-shutdown drain budget (default 30)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit one run to a repro serve instance"
    )
    p.add_argument("kind", help="application kind (escat, prism, ...)")
    p.add_argument("version", help="application version (A/B/C, ...)")
    p.add_argument("--seed", type=int, default=1996)
    p.add_argument("--fast", action="store_true",
                   help="scaled-down problem instead of the paper's")
    p.add_argument("--name", default="",
                   help="client-chosen job name (idempotency key)")
    p.add_argument("--telemetry", action="store_true",
                   help="sample the run; `repro jobs <id> --events` "
                        "streams the time series")
    p.add_argument("--io-nodes", type=int, default=None, metavar="N",
                   help="machine override: number of I/O nodes")
    p.add_argument("--stripe-size", type=int, default=None, metavar="B",
                   help="machine override: stripe size in bytes")
    p.add_argument("--url", default="http://127.0.0.1:8080")
    p.add_argument("--timeout", type=float, default=120.0, metavar="S")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and return immediately")
    p.add_argument("--output", default="", metavar="PATH",
                   help="also fetch the result and write its SDDF trace")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "jobs", help="list or inspect jobs on a repro serve instance"
    )
    p.add_argument("job", nargs="?", default="",
                   help="job id or name (omit to list all jobs)")
    p.add_argument("--events", action="store_true",
                   help="stream the job's JSONL event feed")
    p.add_argument("--url", default="http://127.0.0.1:8080")
    p.add_argument("--timeout", type=float, default=120.0, metavar="S")
    p.set_defaults(fn=_cmd_jobs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Unreadable config paths, unwritable outputs: one line, no
        # traceback — same contract as simulator-level errors.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
