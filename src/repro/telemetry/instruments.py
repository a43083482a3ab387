"""Run-level telemetry wiring: gauges over the simulator's counters.

:class:`RunTelemetry` is attached to one application run by
:func:`repro.apps.base.run_application` when telemetry is enabled.  It

- attaches an :class:`~repro.telemetry.sampler.EngineProbe` to the
  engine (event churn, distinct-timestamp count, periodic queue-depth
  sampling on the sim-time grid);
- registers *callback gauges* over the counters the simulator already
  maintains unconditionally (server/cache/disk/network/datapath/fault
  counters), so the hot paths carry zero telemetry calls;
- produces a structured JSON-able :meth:`snapshot` plus a rendered
  text summary for ``repro metrics``.

Nothing here mutates simulator state: the probe and every gauge only
read attributes.  In particular no :mod:`repro.sim.monitor` queue logs
are attached — those would set ``resource.monitor`` and disqualify
servers from batched-datapath spans, changing event counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sampler import EngineProbe, SimTimeSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.engine import FaultEngine
    from repro.machine.paragon import ParagonXPS
    from repro.pablo.tracer import Trace
    from repro.pfs.client import PFS
    from repro.sim import Engine

#: Snapshot schema identifier (bump on incompatible shape changes).
SCHEMA = "repro.telemetry/v1"


class RunTelemetry:
    """All telemetry for one application run."""

    def __init__(
        self,
        env: "Engine",
        machine: "ParagonXPS",
        pfs: "PFS",
        faults: "Optional[FaultEngine]" = None,
        resolution: Optional[float] = None,
    ) -> None:
        if resolution is None:
            from repro.telemetry import sample_resolution

            resolution = sample_resolution()
        self.env = env
        self.machine = machine
        self.pfs = pfs
        self.faults = faults
        self.registry = MetricsRegistry(enabled=True)
        self.sampler = SimTimeSampler(resolution)
        self.probe = EngineProbe(self.sampler)
        env.attach_probe(self.probe)
        #: Wall-clock seconds of the ``env.run`` call, stamped by the
        #: caller (the engine has no wall clock of its own).
        self.wall_seconds = 0.0
        self._wire()

    # -- wiring ----------------------------------------------------------
    def _wire(self) -> None:
        reg = self.registry
        env = self.env
        probe = self.probe

        reg.gauge_fn(
            "sim_events_total", lambda: probe.events,
            help="Events dispatched by the DES kernel",
        )
        reg.gauge_fn(
            "sim_timestamps_total", lambda: probe.timestamps,
            help="Distinct simulated timestamps reached",
        )
        reg.gauge_fn(
            "sim_clock_seconds", lambda: env.now,
            help="Current simulated time",
        )

        net = self.machine.network
        reg.gauge_fn(
            "net_messages_total", lambda: net.messages,
            help="Mesh messages sent",
        )
        reg.gauge_fn(
            "net_bytes_total", lambda: net.bytes_moved,
            help="Mesh payload bytes moved",
        )

        for server in self.pfs.servers:
            label = str(server.ionode.index)
            s = server
            ion = server.ionode
            disk = ion.disk
            reg.gauge_fn(
                "pfs_server_reads_total", lambda s=s: s.reads,
                help="Read pieces serviced", server=label,
            )
            reg.gauge_fn(
                "pfs_server_writes_total", lambda s=s: s.writes,
                help="Write pieces serviced", server=label,
            )
            reg.gauge_fn(
                "pfs_server_read_bytes_total", lambda s=s: s.bytes_read,
                help="Bytes read", server=label,
            )
            reg.gauge_fn(
                "pfs_server_written_bytes_total",
                lambda s=s: s.bytes_written,
                help="Bytes written", server=label,
            )
            reg.gauge_fn(
                "pfs_server_wb_pending", lambda s=s: s.pending_write_behind,
                help="Write-behind slots held (cached, undrained)",
                server=label,
            )
            reg.gauge_fn(
                "pfs_server_wb_drained_total", lambda s=s: s.wb_drained,
                help="Write-behind drains committed", server=label,
            )
            reg.gauge_fn(
                "pfs_server_wb_drain_wait_seconds_total",
                lambda s=s: s.wb_drain_wait,
                help="Total ack-to-commit drain latency", server=label,
            )
            reg.gauge_fn(
                "pfs_cache_hits_total", lambda s=s: s.cache.hits,
                help="Block-cache hits", server=label,
            )
            reg.gauge_fn(
                "pfs_cache_misses_total", lambda s=s: s.cache.misses,
                help="Block-cache misses", server=label,
            )
            reg.gauge_fn(
                "pfs_cache_evictions_total", lambda s=s: s.cache.evictions,
                help="Block-cache evictions", server=label,
            )
            reg.gauge_fn(
                "pfs_cache_occupancy_blocks", lambda s=s: len(s.cache),
                help="Resident cache blocks", server=label,
            )
            reg.gauge_fn(
                "ionode_queue_length", lambda ion=ion: ion.queue_length,
                help="Requests waiting at the I/O node", server=label,
            )
            reg.gauge_fn(
                "ionode_completed_total", lambda ion=ion: ion.completed,
                help="Disk requests completed", server=label,
            )
            reg.gauge_fn(
                "ionode_queue_delay_seconds_total",
                lambda ion=ion: ion.total_queue_delay,
                help="Cumulative request queueing delay", server=label,
            )
            reg.gauge_fn(
                "disk_busy_seconds_total", lambda d=disk: d.busy_time,
                help="Disk busy time", server=label,
            )
            reg.gauge_fn(
                "disk_position_seconds_total", lambda d=disk: d.position_time,
                help="Disk positioning (seek/settle/RMW) time",
                server=label,
            )
            reg.gauge_fn(
                "disk_transfer_seconds_total", lambda d=disk: d.transfer_time,
                help="Disk streaming-transfer time", server=label,
            )
            reg.gauge_fn(
                "disk_degraded", lambda d=disk: 1.0 if d.degraded else 0.0,
                help="Array currently in degraded (parity) mode",
                server=label,
            )
            reg.gauge_fn(
                "pfs_server_spans_planned_total",
                lambda s=s: s.spans_planned,
                help="Datapath spans planned on this server", server=label,
            )
            reg.gauge_fn(
                "pfs_server_span_revocations_total",
                lambda s=s: s.span_revocations,
                help="Spans folded back into real queue state",
                server=label,
            )
            # Sim-time series: the contention signals the paper cares
            # about, sampled on the shared grid.
            self.sampler.add_source(
                f"ionode{label}.queue", lambda ion=ion: ion.queue_length
            )
            self.sampler.add_source(
                f"server{label}.wb_pending",
                lambda s=s: s.pending_write_behind,
            )
        self.sampler.add_source("engine.events", lambda: probe.events)

        dp = self.pfs.datapath
        if dp is not None:
            reg.gauge_fn(
                "datapath_spans_total", lambda: dp.spans,
                help="Analytic fast-forward spans planned",
            )
            reg.gauge_fn(
                "datapath_span_pieces_total", lambda: dp.span_pieces,
                help="Stripe pieces carried by spans",
            )
            reg.gauge_fn(
                "datapath_fallback_pieces_total", lambda: dp.fallback_pieces,
                help="Stripe pieces event-stepped",
            )
            reg.gauge_fn(
                "datapath_span_bytes_total", lambda: dp.span_bytes,
                help="Bytes moved by spans",
            )
            reg.gauge_fn(
                "datapath_fallback_bytes_total", lambda: dp.fallback_bytes,
                help="Bytes moved event-stepped",
            )
            reg.gauge_fn(
                "datapath_revocations_total", lambda: dp.revocations,
                help="Spans revoked by contention",
            )
            reg.gauge_fn(
                "datapath_spans_stacked_total", lambda: dp.spans_stacked,
                help="Spans planned onto a non-empty chain",
            )
            reg.gauge_fn(
                "datapath_span_stacked_bytes_total",
                lambda: dp.span_stacked_bytes,
                help="Bytes moved by stacked (contended) spans",
            )

        # App-layer batched submissions (the REPRO_FAST_DATAPATH side)
        # and the bulk trace rows they produce.  The counters exist on
        # every run (zero under the event-stepped oracle), so no gating.
        pfs = self.pfs
        reg.gauge_fn(
            "app_batches_submitted_total",
            lambda: pfs.app_batches_submitted,
            help="Client request batches submitted analytically",
        )
        reg.gauge_fn(
            "app_batch_bytes_total", lambda: pfs.app_batch_bytes,
            help="Bytes moved through batched submissions",
        )
        tracer = pfs.tracer
        if tracer is not None:
            reg.gauge_fn(
                "trace_bulk_appends_total", lambda: tracer.bulk_appends,
                help="Column-block appends captured by the tracer",
            )

        faults = self.faults
        if faults is not None:
            for cls in faults.retries_by_class:
                reg.gauge_fn(
                    "fault_retries_total",
                    lambda f=faults, c=cls: f.retries_by_class[c],
                    help="Client retries by fault class", fault_class=cls,
                )
                reg.gauge_fn(
                    "fault_backoff_seconds_total",
                    lambda f=faults, c=cls: f.backoff_by_class[c],
                    help="Client backoff wait by fault class",
                    fault_class=cls,
                )
                reg.gauge_fn(
                    "faults_applied_total",
                    lambda f=faults, c=cls: f.applied_by_class[c],
                    help="Fault transitions applied by class",
                    fault_class=cls,
                )
            reg.gauge_fn(
                "fault_messages_lost_total", lambda: faults.messages_lost,
                help="Messages dropped by network-loss episodes",
            )

    # -- snapshot --------------------------------------------------------
    def snapshot(self, trace: Optional["Trace"] = None) -> dict:
        """One JSON-able document describing the whole run."""
        env = self.env
        now = env.now
        servers: List[dict] = []
        for s in self.pfs.servers:
            ion = s.ionode
            disk = ion.disk
            servers.append({
                "io_node": ion.index,
                "reads": s.reads,
                "writes": s.writes,
                "bytes_read": s.bytes_read,
                "bytes_written": s.bytes_written,
                "cache_hits": s.cache.hits,
                "cache_misses": s.cache.misses,
                "cache_evictions": s.cache.evictions,
                "cache_hit_rate": s.cache.hit_rate,
                "cache_occupancy": len(s.cache),
                "cache_dirty": s.cache.dirty_count,
                "wb_pending": s.pending_write_behind,
                "wb_drained": s.wb_drained,
                "wb_drain_wait_s": s.wb_drain_wait,
                "wb_lost": s.wb_lost,
                "wb_lost_bytes": s.wb_lost_bytes,
                "spans_planned": s.spans_planned,
                "span_revocations": s.span_revocations,
                "requests_completed": ion.completed,
                "queue_delay_s": ion.total_queue_delay,
                "service_s": ion.total_service,
                "disk": {
                    "busy_s": disk.busy_time,
                    "position_s": disk.position_time,
                    "transfer_s": disk.transfer_time,
                    "requests": disk.requests,
                    "bytes": disk.bytes_serviced,
                    "utilization": disk.busy_time / now if now > 0 else 0.0,
                    "degraded": disk.degraded,
                    "rebuilds": disk.rebuilds,
                },
            })
        dp = self.pfs.datapath
        net = self.machine.network
        out = {
            "schema": SCHEMA,
            "sim_seconds": now,
            "wall_seconds": self.wall_seconds,
            "engine": {
                "events": self.probe.events,
                "timestamps": self.probe.timestamps,
                "events_per_timestamp": (
                    self.probe.events / self.probe.timestamps
                    if self.probe.timestamps else 0.0
                ),
                "events_per_wall_second": (
                    self.probe.events / self.wall_seconds
                    if self.wall_seconds > 0 else 0.0
                ),
            },
            "network": {
                "messages": net.messages,
                "bytes_moved": net.bytes_moved,
            },
            "servers": servers,
            "datapath": None if dp is None else {
                "spans": dp.spans,
                "spans_stacked": dp.spans_stacked,
                "span_pieces": dp.span_pieces,
                "fallback_pieces": dp.fallback_pieces,
                "span_bytes": dp.span_bytes,
                "span_stacked_bytes": dp.span_stacked_bytes,
                "fallback_bytes": dp.fallback_bytes,
                "revocations": dp.revocations,
            },
            "app": {
                "batches_submitted": self.pfs.app_batches_submitted,
                "batch_bytes": self.pfs.app_batch_bytes,
                "trace_bulk_appends": (
                    0 if self.pfs.tracer is None
                    else self.pfs.tracer.bulk_appends
                ),
            },
            "faults": None if self.faults is None else self.faults.summary(),
            "metrics": self.registry.collect(),
            "timeseries": self.sampler.as_dict(),
            "run_cache": _run_cache_session(),
        }
        if trace is not None:
            out["trace"] = trace_breakdown(trace)
        return out


def _run_cache_session() -> dict:
    # Imported lazily: experiments.cache imports apps.base, which
    # imports this package.
    from repro.experiments.cache import session_stats

    return session_stats()


def trace_breakdown(trace: "Trace") -> dict:
    """Per-phase / per-op / per-mode aggregation of one Pablo trace."""
    import numpy as np

    from repro.pablo.tracer import OP_LIST

    out = {"events": len(trace), "io_time_s": trace.total_io_time}
    durations = trace.column("duration")
    for field, name in (("phase", "by_phase"), ("mode", "by_mode")):
        codes = trace.codes(field)
        table = trace.table(field)
        counts = np.bincount(codes, minlength=len(table))
        section = {}
        # Sorted tables: the keys come in value order.
        for code in np.flatnonzero(counts).tolist():
            section[table[code] or "(none)"] = {
                "events": int(counts[code]),
                "io_time_s": float(durations[codes == code].sum()),
            }
        out[name] = section
    ops = {}
    codes = trace.op_codes()
    for code in sorted(set(codes.tolist())):
        mask = codes == code
        ops[OP_LIST[code].value] = {
            "events": int(mask.sum()),
            "io_time_s": float(durations[mask].sum()),
        }
    out["by_op"] = ops
    return out


def render_summary(snapshot: dict, top: int = 5) -> str:
    """Human-readable digest of a snapshot for ``repro metrics``."""
    lines: List[str] = []
    eng = snapshot["engine"]
    lines.append(
        f"run: {snapshot['sim_seconds']:.3f} sim-s in "
        f"{snapshot['wall_seconds']:.3f} wall-s "
        f"({eng['events']} events over "
        f"{eng['timestamps']} timestamps, "
        f"{eng['events_per_timestamp']:.2f} events/timestamp)"
    )
    net = snapshot["network"]
    lines.append(
        f"network: {net['messages']} messages, "
        f"{net['bytes_moved']} bytes"
    )
    dp = snapshot.get("datapath")
    if dp is not None:
        moved = dp["span_bytes"] + dp["fallback_bytes"]
        pct = 100.0 * dp["span_bytes"] / moved if moved else 0.0
        stacked = dp.get("spans_stacked", 0)
        lines.append(
            f"datapath: {dp['spans']} spans carried "
            f"{dp['span_pieces']} pieces ({pct:.1f}% of bytes), "
            f"{stacked} stacked onto loaded servers, "
            f"{dp['fallback_pieces']} pieces event-stepped, "
            f"{dp['revocations']} revocations"
        )
    app = snapshot.get("app")
    if app is not None and app.get("batches_submitted"):
        lines.append(
            f"app fast path: {app['batches_submitted']} batches "
            f"submitted ({app['batch_bytes']} bytes), "
            f"{app['trace_bulk_appends']} bulk trace appends"
        )

    servers = snapshot["servers"]
    busiest = sorted(
        servers, key=lambda s: s["disk"]["busy_s"], reverse=True
    )[:top]
    lines.append(f"top {len(busiest)} busiest servers (by disk busy time):")
    for s in busiest:
        d = s["disk"]
        lines.append(
            f"  io{s['io_node']:>3}: busy {d['busy_s']:.3f}s "
            f"(util {100 * d['utilization']:.1f}%, "
            f"seek {d['position_s']:.3f}s / xfer {d['transfer_s']:.3f}s), "
            f"{s['reads']}r/{s['writes']}w, "
            f"queue delay {s['queue_delay_s']:.3f}s"
        )

    hits = sum(s["cache_hits"] for s in servers)
    misses = sum(s["cache_misses"] for s in servers)
    total = hits + misses
    rate = 100.0 * hits / total if total else 0.0
    evictions = sum(s["cache_evictions"] for s in servers)
    drained = sum(s["wb_drained"] for s in servers)
    drain_wait = sum(s["wb_drain_wait_s"] for s in servers)
    wb = f"write-behind drained {drained}"
    if drained:
        wb += f" (mean wait {drain_wait / drained:.4f}s)"
    lines.append(
        f"caches: {hits}/{total} lookups hit ({rate:.1f}%), "
        f"{evictions} evictions; {wb}"
    )

    rc = snapshot.get("run_cache") or {}
    if rc.get("hits", 0) or rc.get("misses", 0):
        lines.append(
            f"run cache (this process): {rc.get('hits', 0)} hits, "
            f"{rc.get('misses', 0)} misses, "
            f"{rc.get('stores', 0)} stores, "
            f"{rc.get('evictions', 0)} evictions"
        )

    faults = snapshot.get("faults")
    if faults is not None:
        by_class = faults.get("retries_by_class", {})
        per_class = ", ".join(
            f"{cls} {n}" for cls, n in sorted(by_class.items()) if n
        ) or "none"
        lines.append(
            f"faults: {len(faults.get('applied', []))} transitions, "
            f"retries {faults.get('retries', 0)} ({per_class}), "
            f"backoff {faults.get('backoff_s', 0.0):.3f}s, "
            f"lost {faults.get('messages_lost', 0)}, "
            f"wb lost {faults.get('wb_lost', 0)}, "
            f"degraded {faults.get('degraded_s', 0.0):.3f}s"
        )

    tr = snapshot.get("trace")
    if tr:
        lines.append(
            f"trace: {tr['events']} events, {tr['io_time_s']:.3f}s I/O time"
        )
        for phase, agg in sorted(tr.get("by_phase", {}).items()):
            lines.append(
                f"  phase {phase}: {agg['events']} events, "
                f"{agg['io_time_s']:.3f}s"
            )
    return "\n".join(lines)
