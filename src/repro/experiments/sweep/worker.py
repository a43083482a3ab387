"""The sweep worker: one process, one point at a time.

Workers are deliberately thin — all scheduling intelligence (the work
queue, retries, quarantine, journaling) lives in the driver.  A
worker blocks on its private inbox, executes the dispatched point
through the run cache under :func:`run_guarded` (so simulator errors
*and* unexpected exceptions fold into a reportable message, and the
per-point wall-clock guard arms via ``SIGALRM`` on the worker's main
thread), and reports on the shared results queue.

Two robustness details:

- **Orphan detection.**  A SIGKILLed driver cannot tell its workers to
  stop, so the inbox wait uses a short timeout and checks whether the
  parent process changed (``os.getppid``): an orphaned worker exits on
  its own instead of lingering forever.
- **Sentinel discipline.**  Every dispatched point is answered by
  exactly one message (``done`` / ``failed`` / ``timeout``) — unless
  the worker dies, which the driver detects via ``Process.exitcode``
  and treats as a crash of the in-flight point.
"""

from __future__ import annotations

import os
import queue
from typing import Dict

from repro.experiments import cache

#: Inbox poll interval (real seconds) between orphan checks.
POLL_S = 0.25


def _summary(result, cache_hit: bool) -> Dict:
    """The JSON-able per-point metrics row.

    Only deterministic simulation outputs belong here (the aggregate
    must be bit-identical across interrupted/resumed sessions);
    ``cache_hit`` is operational and is reported alongside, never in
    the aggregate columns.
    """
    return {
        "application": result.application,
        "app_version": result.version,
        "dataset": result.dataset,
        "n_nodes": int(result.n_nodes),
        "wall_time": float(result.wall_time),
        "io_node_seconds": float(result.io_node_seconds),
        "events": int(len(result.trace)),
        "cache_hit": bool(cache_hit),
    }


def execute_point(point, wall_timeout=None, with_telemetry=False):
    """Run one point guarded; returns ``(kind, payload)`` messages'
    tail — shared by workers and the driver's in-process fallback.

    ``with_telemetry`` is the serve layer's opt-in mode (sweeps never
    pass it): it enables the zero-overhead sampler for this one run
    and attaches its time series to the summary, so the events
    endpoint can stream run progress.
    """
    from repro import telemetry
    from repro.experiments.runner import run_guarded

    before = cache.session_stats()["hits"]
    if with_telemetry:
        telemetry.set_enabled(True)
    try:
        guarded = run_guarded(
            lambda: point.plan().fetch_or_run(), wall_timeout=wall_timeout
        )
    finally:
        if with_telemetry:
            telemetry.set_enabled(None)
    if guarded.timed_out:
        return "timeout", None
    if guarded.error is not None:
        return "failed", {
            "error": guarded.error,
            "traceback": guarded.traceback,
        }
    hit = cache.session_stats()["hits"] > before
    summary = _summary(guarded.result, hit)
    if with_telemetry:
        snapshot = getattr(guarded.result, "telemetry", None)
        if snapshot:
            summary["timeseries"] = snapshot.get("timeseries")
    return "done", summary


def worker_main(worker_id: int, inbox, results, execute=None) -> None:
    """The worker process body (target of ``multiprocessing.Process``).

    Each inbox message is ``(point, *args)``; ``execute(point, *args)``
    runs it (default :func:`execute_point`, whose ``args`` are the
    wall-clock guard and, from the serve layer, the telemetry flag).
    """
    if execute is None:
        execute = execute_point
    parent = os.getppid()
    while True:
        try:
            msg = inbox.get(timeout=POLL_S)
        except queue.Empty:
            if os.getppid() != parent:
                # The driver died; nobody will ever send again.
                return
            continue
        if msg is None:
            results.put(("bye", worker_id, None, None))
            return
        point, *args = msg
        try:
            kind, payload = execute(point, *args)
        except BaseException as exc:  # noqa: BLE001 - last-ditch report
            # run_guarded already folds Exception; this catches
            # KeyboardInterrupt/SystemExit reaching a *worker* (which
            # must not kill the sweep) and anything escaping plan().
            import traceback as traceback_module

            results.put(("failed", worker_id, point.point_id, {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback_module.format_exc(),
            }))
            continue
        results.put((kind, worker_id, point.point_id, payload))
