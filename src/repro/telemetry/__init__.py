"""repro.telemetry — observability for the simulator itself.

The paper's method is instrumentation (Pablo traces of real codes);
this package is the simulator-side mirror: counters, gauges,
histograms, a sim-time sampler, and JSON/OpenMetrics exporters over
the DES kernel, the PFS data path, the block caches, the disks, the
fault engine, and the run cache.

Two guarantees (asserted by ``tests/test_telemetry.py``):

- **Byte-identical output.**  Telemetry only *reads* simulator state —
  the engine probe hooks the dispatch loop, and every gauge is a
  callback over counters the simulator maintains anyway — so SDDF
  traces and table rows are identical with telemetry on or off.
- **Near-zero cost when disabled.**  The enabled flag is consulted
  once per run (``run_application``) and once per instrument creation,
  never per event: in a disabled run the dispatch loop's probe branch
  is never taken, and instruments are shared null objects.

Enable with ``REPRO_TELEMETRY=1`` (or :func:`set_enabled`); tune the
sampler grid with ``REPRO_TELEMETRY_RESOLUTION`` (simulated seconds,
default 1.0) or :func:`set_sample_resolution`.
"""

from __future__ import annotations

from typing import Optional

from repro import flags
from repro.telemetry.diff import (
    load_snapshot,
    render_diff,
    snapshot_diff,
)
from repro.telemetry.export import (
    to_json,
    to_openmetrics,
    write_json,
    write_openmetrics,
)
from repro.telemetry.instruments import (
    RunTelemetry,
    render_summary,
    trace_breakdown,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    TelemetryError,
)
from repro.telemetry.sampler import (
    DEFAULT_RESOLUTION,
    EngineProbe,
    SimTimeSampler,
)

#: Session override; ``None`` defers to the environment variable.
_enabled_override: Optional[bool] = None
_resolution_override: Optional[float] = None


def enabled() -> bool:
    """Whether telemetry is collected for new runs."""
    if _enabled_override is not None:
        return _enabled_override
    return flags.telemetry()


def set_enabled(value: Optional[bool]) -> None:
    """Force telemetry on/off for this process (``None`` = follow the
    ``REPRO_TELEMETRY`` environment variable again)."""
    global _enabled_override
    _enabled_override = value


def sample_resolution() -> float:
    """Sampler grid spacing in simulated seconds."""
    if _resolution_override is not None:
        return _resolution_override
    value = flags.telemetry_resolution()
    if value is not None:
        return value
    return DEFAULT_RESOLUTION


def set_sample_resolution(value: Optional[float]) -> None:
    """Override the sampler resolution (``None`` = back to env)."""
    global _resolution_override
    if value is not None and value <= 0:
        raise TelemetryError(f"resolution must be > 0: {value}")
    _resolution_override = value


__all__ = [
    "Counter",
    "DEFAULT_RESOLUTION",
    "EngineProbe",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "RunTelemetry",
    "SimTimeSampler",
    "TelemetryError",
    "enabled",
    "load_snapshot",
    "render_diff",
    "render_summary",
    "snapshot_diff",
    "sample_resolution",
    "set_enabled",
    "set_sample_resolution",
    "to_json",
    "to_openmetrics",
    "trace_breakdown",
    "write_json",
    "write_openmetrics",
]
