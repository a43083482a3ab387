"""Per-layer diff of two telemetry snapshots (``repro metrics diff``).

The point of the batched data path's telemetry is *attribution*: when
a run gets faster or slower, which layer moved?  This module compares
two snapshot documents (as written by ``repro metrics --json``) and
produces a per-layer delta table — disk seek/transfer split, span
vs. fallback byte share, revocations, cache hit rate, queueing — so a
contended-path win (or regression) can be pinned to a layer instead
of argued from wall time alone.

Both inputs are plain dicts in the :data:`repro.telemetry.SCHEMA`
shape.  Missing sections (``datapath`` on legacy-datapath runs,
``faults`` on fault-free runs) simply drop their layer from the
table, so snapshots from differently configured runs still diff.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional, Tuple

from repro.telemetry.registry import TelemetryError

#: Layer table: (layer, metric label, extractor, is_rate).  Extractors
#: return ``None`` when the snapshot does not carry the metric; rates
#: are formatted as percentages and diffed in percentage points.
_Extractor = Callable[[dict], Optional[float]]


def _engine(field: str) -> _Extractor:
    return lambda snap: snap.get("engine", {}).get(field)


def _network(field: str) -> _Extractor:
    return lambda snap: snap.get("network", {}).get(field)


def _datapath(field: str) -> _Extractor:
    def get(snap: dict) -> Optional[float]:
        dp = snap.get("datapath")
        return None if dp is None else dp.get(field)

    return get


def _app(field: str) -> _Extractor:
    def get(snap: dict) -> Optional[float]:
        app = snap.get("app")
        return None if app is None else app.get(field)

    return get


def _server_sum(field: str) -> _Extractor:
    def get(snap: dict) -> Optional[float]:
        servers = snap.get("servers")
        if not servers:
            return None
        return sum(s.get(field, 0) for s in servers)

    return get


def _disk_sum(field: str) -> _Extractor:
    def get(snap: dict) -> Optional[float]:
        servers = snap.get("servers")
        if not servers:
            return None
        return sum(s.get("disk", {}).get(field, 0) for s in servers)

    return get


def _span_byte_share(snap: dict) -> Optional[float]:
    dp = snap.get("datapath")
    if dp is None:
        return None
    moved = dp.get("span_bytes", 0) + dp.get("fallback_bytes", 0)
    if not moved:
        return 0.0
    return 100.0 * dp.get("span_bytes", 0) / moved


def _cache_hit_rate(snap: dict) -> Optional[float]:
    servers = snap.get("servers")
    if not servers:
        return None
    hits = sum(s.get("cache_hits", 0) for s in servers)
    total = hits + sum(s.get("cache_misses", 0) for s in servers)
    if not total:
        return 0.0
    return 100.0 * hits / total


def _fault(field: str) -> _Extractor:
    def get(snap: dict) -> Optional[float]:
        faults = snap.get("faults")
        return None if faults is None else faults.get(field)

    return get


_LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, _Extractor, bool], ...]], ...] = (
    ("run", (
        ("sim_seconds", lambda s: s.get("sim_seconds"), False),
        ("wall_seconds", lambda s: s.get("wall_seconds"), False),
    )),
    ("engine", (
        ("events", _engine("events"), False),
        ("timestamps", _engine("timestamps"), False),
        ("events_per_timestamp", _engine("events_per_timestamp"), False),
    )),
    ("network", (
        ("messages", _network("messages"), False),
        ("bytes_moved", _network("bytes_moved"), False),
    )),
    ("datapath", (
        ("spans", _datapath("spans"), False),
        ("spans_stacked", _datapath("spans_stacked"), False),
        ("span_byte_share_pct", _span_byte_share, True),
        ("span_stacked_bytes", _datapath("span_stacked_bytes"), False),
        ("fallback_pieces", _datapath("fallback_pieces"), False),
        ("revocations", _datapath("revocations"), False),
    )),
    ("app", (
        ("batches_submitted", _app("batches_submitted"), False),
        ("batch_bytes", _app("batch_bytes"), False),
        ("trace_bulk_appends", _app("trace_bulk_appends"), False),
    )),
    ("disk", (
        ("busy_s", _disk_sum("busy_s"), False),
        ("seek_s", _disk_sum("position_s"), False),
        ("transfer_s", _disk_sum("transfer_s"), False),
        ("requests", _disk_sum("requests"), False),
    )),
    ("server", (
        ("requests_completed", _server_sum("requests_completed"), False),
        ("queue_delay_s", _server_sum("queue_delay_s"), False),
        ("service_s", _server_sum("service_s"), False),
        ("wb_drained", _server_sum("wb_drained"), False),
    )),
    ("cache", (
        ("hit_rate_pct", _cache_hit_rate, True),
        ("hits", _server_sum("cache_hits"), False),
        ("misses", _server_sum("cache_misses"), False),
        ("evictions", _server_sum("cache_evictions"), False),
    )),
    ("faults", (
        ("retries", _fault("retries"), False),
        ("messages_lost", _fault("messages_lost"), False),
        ("backoff_s", _fault("backoff_s"), False),
    )),
)


def load_snapshot(path: str) -> dict:
    """Read one ``repro metrics --json`` snapshot from disk."""
    try:
        with open(path) as stream:
            snap = json.load(stream)
    except (OSError, ValueError) as exc:
        raise TelemetryError(f"cannot read snapshot {path}: {exc}")
    if not isinstance(snap, dict) or "servers" not in snap:
        raise TelemetryError(f"{path} is not a telemetry snapshot")
    return snap


def snapshot_diff(a: dict, b: dict) -> dict:
    """Per-layer delta table between snapshots ``a`` and ``b``.

    Returns ``{"layers": [{"layer": ..., "rows": [...]}, ...]}`` where
    each row carries the metric label, both values, the absolute delta
    (``b - a``), and — for non-rate metrics with a nonzero ``a`` — the
    relative change in percent.  Metrics absent from *both* snapshots
    are dropped; a metric absent from one side is kept with ``None``
    so configuration differences stay visible.
    """
    layers: List[dict] = []
    for layer, metrics in _LAYERS:
        rows: List[dict] = []
        for label, extract, is_rate in metrics:
            va = extract(a)
            vb = extract(b)
            if va is None and vb is None:
                continue
            row: dict = {"metric": label, "a": va, "b": vb, "rate": is_rate}
            if va is not None and vb is not None:
                row["delta"] = vb - va
                if not is_rate and va:
                    row["pct"] = 100.0 * (vb - va) / abs(va)
            rows.append(row)
        if rows:
            layers.append({"layer": layer, "rows": rows})
    return {"layers": layers}


def _fmt(value: Optional[float], rate: bool) -> str:
    if value is None:
        return "-"
    if rate:
        return f"{value:.1f}%"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return f"{int(value):,}"


def render_diff(diff: dict, a_name: str = "a", b_name: str = "b") -> str:
    """Fixed-width table of a :func:`snapshot_diff` result."""
    lines = [
        f"{'layer':10s} {'metric':24s} {a_name:>14s} {b_name:>14s}"
        f" {'delta':>14s} {'change':>8s}"
    ]
    for section in diff["layers"]:
        layer = section["layer"]
        for row in section["rows"]:
            rate = row["rate"]
            delta = row.get("delta")
            if delta is None:
                change = "-"
            elif rate:
                change = f"{delta:+.1f}pp"
            elif "pct" in row:
                change = f"{row['pct']:+.1f}%"
            else:
                change = "-"
            lines.append(
                f"{layer:10s} {row['metric']:24s}"
                f" {_fmt(row['a'], rate):>14s}"
                f" {_fmt(row['b'], rate):>14s}"
                f" {_fmt(delta, rate):>14s}"
                f" {change:>8s}"
            )
            layer = ""
    return "\n".join(lines)
