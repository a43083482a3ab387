"""The sweep engine's miniature probe application.

Large-grid tests, CI smoke cells, and failure-injection drills need
points that are (a) milliseconds cheap, (b) fully deterministic, and
(c) able to *misbehave on purpose*.  The ``probe`` kind provides both:
its "version" string selects a behaviour —

- ``ok`` / ``slow`` — run a tiny (respectively: small) ESCAT
  simulation through the ordinary run cache; ``slow`` exists so tests
  can mix cheap and costly points and check that both workers share
  the costly ones.
- ``error`` — raise ``ZeroDivisionError`` inside the worker (exercises
  the generic-exception fold in ``run_guarded``).
- ``crash`` — SIGKILL the worker process mid-point, every attempt
  (the poisoned-point path: retries exhaust, the point quarantines).
- ``crash-once`` — SIGKILL only on the first attempt; the retried
  point completes on a surviving/replacement worker.
- ``hang`` — sleep far past any reasonable per-point timeout
  (exercises the wall-clock guard).

The crash behaviours coordinate through a marker file under the run
cache directory (keyed by point seed), because a SIGKILLed process
cannot remember that it already crashed — the *next* attempt must be
able to see the first one happened.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.errors import SweepError
from repro.experiments import cache
from repro.experiments.runner import RunPlan

#: Behaviours understood as probe "versions".
PROBE_BEHAVIORS = ("ok", "slow", "error", "crash", "crash-once", "hang")


def _probe_problem(slow: bool):
    from repro.apps import scaled_escat_problem

    if slow:
        # A deliberately heavier cell (~10-20x the "ok" probe): enough
        # for load-balance tests without dominating a suite run.
        return scaled_escat_problem(
            n_nodes=8, n_channels=2, records_per_channel=16, n_energies=2,
            cycle_compute=0.05,
        )
    return scaled_escat_problem(
        n_nodes=2, n_channels=1, records_per_channel=2, n_energies=1,
        cycle_compute=0.01,
    )


def _crash_marker(seed: int) -> Path:
    return cache.cache_dir() / f"probe-crash-once-{seed}.marker"


def reset_crash_markers() -> int:
    """Remove ``crash-once`` markers (tests call this between sweeps)."""
    root = cache.cache_dir()
    removed = 0
    if not root.exists():
        return 0
    for path in root.glob("probe-crash-once-*.marker"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def _run_probe(behavior: str, seed: int):
    from repro.apps import run_escat

    if behavior == "error":
        return 1 // 0  # the archetypal unexpected exception
    if behavior == "hang":
        time.sleep(3600.0)
        raise SweepError("probe hang returned — timeout guard missing")
    if behavior == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    if behavior == "crash-once":
        marker = _crash_marker(seed)
        if not marker.exists():
            try:
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.write_text("crashed\n")
            except OSError:
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        # Second attempt: fall through to a healthy run.
    return run_escat("C", _probe_problem(behavior == "slow"), seed=seed)


def plan_probe(behavior: str, seed: int) -> RunPlan:
    """The :class:`RunPlan` for one probe point.

    Probe runs are cached like any application run (keyed by behaviour
    + seed), so duplicated probe points deduplicate through the run
    cache exactly as real application points do.
    """
    if behavior not in PROBE_BEHAVIORS:
        raise SweepError(
            f"unknown probe behaviour {behavior!r}; have {PROBE_BEHAVIORS}"
        )
    return RunPlan(
        key=cache.run_key(kind="probe", version=behavior, seed=seed),
        producer=lambda: _run_probe(behavior, seed),
    )
