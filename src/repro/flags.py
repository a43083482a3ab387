"""Centralized ``REPRO_*`` runtime flags — the sanctioned environ boundary.

Every behavior flag the simulator honours is parsed here and nowhere
else.  The determinism linter (:mod:`repro.analysis`) forbids
``os.environ`` access inside the sim-affecting packages (``sim``,
``pfs``, ``machine``, ``faults``, ``apps``, ``policies``,
``workloads``, ``pablo``): those layers call the accessors below *once
at construction time* — ``PFS.__init__`` resolves :func:`fast_datapath`
and :func:`fast_app` — and thread the resolved values through their
own state for the rest of the run.  That is what keeps cached-run
keys honest: nothing consulted after run setup can drift away from
the environment the run was keyed under.

The flags fall into two classes:

- **Equivalence-preserving** (``REPRO_FAST_DATAPATH``,
  ``REPRO_FAST_APP``, ``REPRO_SANITIZE``, ``REPRO_TELEMETRY*``):
  byte-identical simulations either way (asserted by the determinism
  batteries), so they are deliberately *excluded* from run-cache keys
  — a cached entry is valid under any setting.
- **Operational** (``REPRO_CACHE``, ``REPRO_CACHE_DIR``,
  ``REPRO_CACHE_MAX_BYTES``): affect where/whether results are stored,
  never what they contain.

The DES kernel has no flag: there is one kernel, and its ordering
invariant (simulated time never moves backwards) is an entry check in
``Engine.at`` and ``Engine._schedule``, not an opt-in sanitizer pass.

:func:`resolved` snapshots everything at once for reports and
diagnostics.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Union


def _truthy(name: str, default: str = "1") -> bool:
    """Shared parse rule: every boolean ``REPRO_*`` flag treats any
    value other than ``"0"`` as on (absent falls back to ``default``)."""
    return os.environ.get(name, default) != "0"


# -- equivalence-preserving fast paths ---------------------------------
def fast_datapath() -> bool:
    """Batched PFS data path with analytic spans
    (``REPRO_FAST_DATAPATH``, default on)."""
    return _truthy("REPRO_FAST_DATAPATH")


def fast_app() -> bool:
    """App-layer batched submission (``REPRO_FAST_APP``, default on)."""
    return _truthy("REPRO_FAST_APP")


# -- runtime sanitizer -------------------------------------------------
def sanitize() -> bool:
    """Runtime invariant checks in the hot layers (``REPRO_SANITIZE``,
    default off).  See :mod:`repro.sanitize`."""
    return _truthy("REPRO_SANITIZE", default="0")


# -- telemetry ---------------------------------------------------------
def telemetry() -> bool:
    """Telemetry collection for new runs (``REPRO_TELEMETRY``, default
    off).  :func:`repro.telemetry.enabled` adds a session override on
    top of this."""
    return _truthy("REPRO_TELEMETRY", default="0")


def telemetry_resolution() -> Optional[float]:
    """Sampler grid spacing override in simulated seconds
    (``REPRO_TELEMETRY_RESOLUTION``), or ``None`` when unset/invalid."""
    raw = os.environ.get("REPRO_TELEMETRY_RESOLUTION")
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return None
        if value > 0:
            return value
    return None


# -- run cache ---------------------------------------------------------
def cache_enabled() -> bool:
    """On-disk run cache participation (``REPRO_CACHE``, default on)."""
    return _truthy("REPRO_CACHE")


def cache_dir() -> Optional[str]:
    """Run-cache directory override (``REPRO_CACHE_DIR``), or ``None``
    for the default under the user cache home."""
    return os.environ.get("REPRO_CACHE_DIR") or None


def cache_max_bytes(default: int) -> int:
    """Run-cache footprint cap (``REPRO_CACHE_MAX_BYTES``); falls back
    to ``default`` when unset or unparseable.  ``<= 0`` means uncapped."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def resolved() -> Dict[str, Union[bool, float, str, None]]:
    """One snapshot of every flag, for reports and run metadata."""
    return {
        "fast_datapath": fast_datapath(),
        "fast_app": fast_app(),
        "sanitize": sanitize(),
        "telemetry": telemetry(),
        "telemetry_resolution": telemetry_resolution(),
        "cache_enabled": cache_enabled(),
        "cache_dir": cache_dir(),
    }
