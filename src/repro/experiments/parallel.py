"""Parallel experiment fan-out: prewarm the run cache with workers.

The experiment harness derives everything from a fixed set of
independent simulations (three ESCAT versions, three PRISM versions,
the carbon-monoxide run, and the six Figure-1 progression builds).
``prewarm`` hands those simulations to the crash-tolerant sweep engine
(:mod:`repro.experiments.sweep`) as a programmatic point list: a pool
of worker processes persists each result in the on-disk cache
(:mod:`repro.experiments.cache`), and the parent then loads the
traces back instead of re-simulating.  Results are
bit-identical either way — the workers only change *where* the
deterministic simulation executes.

Each spec is isolated: a spec that fails (an unknown version, a
crashing worker) is quarantined by the engine and reported, and every
other spec still warms.  When the disk cache is disabled
(``REPRO_CACHE=0``) workers would have no channel to hand results
back, so the fan-out degrades to in-process serial execution, still
isolating each spec through :func:`~repro.experiments.runner.run_guarded`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.experiments import cache

#: (kind, version) for every independent simulated execution.
PREWARM_BASE: List[Tuple[str, str]] = [
    ("escat", "A"),
    ("escat", "B"),
    ("escat", "C"),
    ("prism", "A"),
    ("prism", "B"),
    ("prism", "C"),
    ("escat-co", "C"),
]


def prewarm_specs(include_progressions: bool = True) -> List[Tuple[str, str]]:
    specs = list(PREWARM_BASE)
    if include_progressions:
        from repro.apps.escat.versions import ESCAT_PROGRESSIONS

        specs.extend(
            ("escat-prog", version.name) for version in ESCAT_PROGRESSIONS
        )
    return specs


def _warm_memo(kind: str, version: str, fast: bool, seed: int):
    """Serial-path body: warm the in-process memo for one spec."""
    from repro.experiments import runner

    if kind == "escat":
        return runner.escat_result(version, fast=fast, seed=seed)
    if kind == "prism":
        return runner.prism_result(version, fast=fast, seed=seed)
    if kind == "escat-co":
        return runner.carbon_monoxide_result(fast=fast, seed=seed)
    if kind == "escat-prog":
        return runner.escat_progression_result(version, fast=fast, seed=seed)
    # Fall through to plan_run's own validation for unknown kinds.
    return runner.plan_run(kind, version, fast=fast, seed=seed).fetch_or_run()


def prewarm(
    jobs: int,
    fast: bool = False,
    seed: Optional[int] = None,
    include_progressions: bool = True,
    specs: Optional[Iterable[Tuple[str, str]]] = None,
    errors: Optional[Dict[str, str]] = None,
) -> int:
    """Simulate every independent experiment input, ``jobs`` at a time.

    Returns the number of targets that completed.  Safe to call when
    some or all targets are already cached — those points resolve from
    a disk hit almost immediately.  Failing specs are isolated (the
    rest still warm); pass ``errors`` to collect ``tag -> error``
    descriptions of any that failed.
    """
    from repro.experiments.runner import DEFAULT_SEED, run_guarded
    from repro.experiments.sweep import points_for_specs, run_points

    if seed is None:
        seed = DEFAULT_SEED
    chosen = list(specs) if specs is not None else prewarm_specs(
        include_progressions
    )
    if not chosen:
        return 0
    points = points_for_specs(chosen, fast=fast, seed=seed)
    if jobs <= 1 or len(points) <= 1 or not cache.cache_enabled():
        # Serial in-process warming through the memoized helpers (the
        # in-process memo is the only cache layer left when the disk
        # cache is off) — still one isolation boundary per spec.
        completed = 0
        for kind, version in chosen:
            guarded = run_guarded(
                lambda k=kind, v=version: _warm_memo(k, v, fast, seed)
            )
            if guarded.completed:
                completed += 1
            elif errors is not None:
                errors[f"{kind}/{version}"] = guarded.error or "failed"
        return completed
    outcome = run_points(points, jobs=jobs)
    if errors is not None:
        for record in outcome.quarantined.values():
            index = record.get("index")
            tag = points[index].tag if index is not None else str(index)
            errors[tag] = record.get("error") or "failed"
    return outcome.counts["completed"]
