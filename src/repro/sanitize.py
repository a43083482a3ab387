"""``REPRO_SANITIZE`` — runtime invariant checks for the hot layers.

The repo's determinism guarantees (byte-identical SDDF across both
datapaths x app fast-path on/off) are normally defended by
after-the-fact equivalence tests: a bug shows up as a byte-diff, often
several PRs after it was introduced.  The sanitizer moves the failure
to the offending line: with ``REPRO_SANITIZE=1`` the hot layers
compile in cheap invariant checks and raise
:class:`~repro.errors.SanitizeError` the moment state goes
inconsistent.

Invariants covered (see ``docs/static-analysis.md`` for the catalog):

- **PlanChain** — chain effects are applied in non-decreasing
  timestamp order, the applied-prefix cursor stays within bounds, the
  ``next_due`` memo is never stale-high, and settlement leaves the
  chain empty (``repro.pfs.datapath.SanitizedPlanChain``).
- **FastSpan** — planned resource arrivals are monotone per chain
  (the append-order guard's promise), completion instants never
  precede the request arrival, completions dispatch exactly at their
  planned instant, and reconstitution only runs on spans the chain
  actually revoked (``SanitizedFastSpan``).
- **Client read buffer** — ``serve()`` re-validates the coverage and
  write-generation precondition its hot path deliberately skips
  (``repro.pfs.buffering.SanitizedReadBuffer``).

The DES kernel needs no sanitizer pass: its ordering invariant
(simulated time never moves backwards) is an always-on entry check in
``Engine.at`` and ``Engine._schedule``, which reject a past time at
the offending call.

Wiring follows the telemetry package's zero-overhead-when-off
pattern: the flag is consulted once per object construction
(``DataPath``, ``ReadBuffer`` selection), never per event, so
default-mode hot loops carry no sanitizer branches.  Sanitized runs
stay byte-identical — checks only read state.
"""

from __future__ import annotations

from typing import NoReturn, Optional

from repro import flags
from repro.errors import SanitizeError

#: Session override; ``None`` defers to the ``REPRO_SANITIZE``
#: environment variable (resolved through :mod:`repro.flags`).
_enabled_override: Optional[bool] = None


def enabled() -> bool:
    """Whether newly constructed hot-layer objects compile checks in."""
    if _enabled_override is not None:
        return _enabled_override
    return flags.sanitize()


def set_enabled(value: Optional[bool]) -> None:
    """Force sanitization on/off for this process (``None`` = follow
    the ``REPRO_SANITIZE`` environment variable again).  Only affects
    objects constructed afterwards."""
    global _enabled_override
    _enabled_override = value


def fail(message: str) -> NoReturn:
    """Raise a :class:`SanitizeError` at the offending call site."""
    raise SanitizeError(message)
