"""Span stacking under contention: edge-case equivalence battery.

The contended-span batching work lets the datapath stack a new
``FastSpan`` onto a server that already has an active plan chain
instead of falling back to event-stepped pieces.  Every scenario here
is chosen to stress one seam of that machinery — write-behind drains
landing mid-span, revocation of a multi-span chain, fault plans and
degraded RAID-3 arrays underneath stacked spans — and each asserts
the same oracle as ``test_datapath_equivalence``: byte-identical SDDF
output and identical simulated wall clock versus the legacy per-piece
path.  Where the scenario exists to prove stacking *happened*, the
datapath counters are asserted too, so these cells cannot silently
degrade into fallback-only runs.
"""

import io


from repro.faults import FaultPlan
from repro.faults.plan import DiskFailure, SlowDown
from repro.machine import DiskConfig, MachineConfig, NetworkConfig, ParagonXPS
from repro.pablo import Tracer
from repro.pablo.sddf import write_sddf
from repro.pfs import PFS
from repro.pfs.modes import AccessMode
from repro.sim import Engine
from repro.units import KB

N_RANKS = 8

#: Ragged sizes force multi-piece spans that cross stripe boundaries.
SIZES = (48 * KB, 7777, 65 * KB + 123, 64 * KB)


def _run_contended(
    fast_datapath,
    monkeypatch,
    mode=AccessMode.M_UNIX,
    sizes=SIZES,
    write_behind_slots=256,
    fault_plan=None,
    n_io_nodes=2,
):
    """Eight ranks hammer two I/O nodes; returns (sddf, wall, pfs)."""
    monkeypatch.setenv("REPRO_FAST_DATAPATH", "1" if fast_datapath else "0")
    eng = Engine()
    config = MachineConfig(
        mesh_cols=4,
        mesh_rows=4,
        n_compute_nodes=16,
        n_io_nodes=n_io_nodes,
        stripe_size=64 * KB,
        network=NetworkConfig(),
        disk=DiskConfig(),
    )
    machine = ParagonXPS(eng, config)
    tracer = Tracer()
    pfs = PFS(
        eng, machine, tracer=tracer,
        write_behind_slots=write_behind_slots,
    )
    assert (pfs.datapath is not None) == fast_datapath
    if fault_plan is not None:
        from repro.faults import FaultEngine

        FaultEngine(eng, machine, pfs, fault_plan)

    group = list(range(N_RANKS))
    gopen_mode = None if mode is AccessMode.M_UNIX else mode

    def rank_proc(rank):
        cli = pfs.client(rank)
        h = yield from cli.gopen("/pfs/stack", group=group, mode=gopen_mode)
        for s in sizes:
            yield from cli.write(h, s)
        yield from cli.close(h)
        h = yield from cli.gopen("/pfs/stack", group=group, mode=gopen_mode)
        for s in sizes:
            yield from cli.read(h, s)
        yield from cli.close(h)

    for rank in group:
        eng.process(rank_proc(rank), name=f"rank-{rank}")
    eng.run()
    out = io.StringIO()
    write_sddf(tracer.finish(), out)
    return out.getvalue(), eng.now, pfs


def _assert_equivalent(fast, legacy):
    fast_sddf, fast_wall, _ = fast
    legacy_sddf, legacy_wall, _ = legacy
    assert fast_sddf == legacy_sddf
    assert fast_wall == legacy_wall


def test_contended_workload_stacks_and_matches_legacy(monkeypatch):
    fast = _run_contended(True, monkeypatch)
    legacy = _run_contended(False, monkeypatch)
    _assert_equivalent(fast, legacy)
    dp = fast[2].datapath
    # The point of the PR: contention no longer forces fallback.
    assert dp.spans_stacked > 0
    assert dp.span_stacked_bytes > 0
    assert dp.fallback_pieces == 0


def test_write_behind_drains_mid_span(monkeypatch):
    # M_ASYNC acks into write-behind; starved slots force drains while
    # later spans are still being planned and stacked on the same
    # servers, and drain completions settle chains mid-flight.
    kwargs = dict(mode=AccessMode.M_ASYNC, write_behind_slots=4)
    fast = _run_contended(True, monkeypatch, **kwargs)
    legacy = _run_contended(False, monkeypatch, **kwargs)
    _assert_equivalent(fast, legacy)
    servers = fast[2].servers
    assert sum(s.wb_drained for s in servers) > 0
    assert fast[2].datapath.spans_stacked > 0


def test_mid_chain_revocation_reconstitutes_exactly(monkeypatch):
    # M_RECORD mixes plannable reads with write-behind traffic whose
    # event-stepped entries settle (revoke) active multi-span chains.
    kwargs = dict(mode=AccessMode.M_RECORD, sizes=(48 * KB,) * 4)
    fast = _run_contended(True, monkeypatch, **kwargs)
    legacy = _run_contended(False, monkeypatch, **kwargs)
    _assert_equivalent(fast, legacy)
    dp = fast[2].datapath
    assert dp.revocations > 0
    assert dp.spans_stacked > 0


def test_fault_plan_under_stacked_spans(monkeypatch):
    # A mid-run slowdown plus a rebuilding disk failure, underneath the
    # same contended workload: fault entries land inside chain windows.
    plan = FaultPlan(events=(
        SlowDown(time=2.0, duration=3.0, io_node=0, factor=6.0),
        DiskFailure(time=4.0, io_node=1, rebuild_after=5.0),
    ))
    fast = _run_contended(True, monkeypatch, fault_plan=plan)
    legacy = _run_contended(False, monkeypatch, fault_plan=plan)
    _assert_equivalent(fast, legacy)


def test_degraded_raid3_under_stacking(monkeypatch):
    # Disk 0 fails at t=0 and never rebuilds: every span planned on it
    # prices degraded-mode RAID-3 service times end to end.
    plan = FaultPlan(events=(
        DiskFailure(time=0.0, io_node=0, rebuild_after=None),
    ))
    fast = _run_contended(True, monkeypatch, fault_plan=plan)
    legacy = _run_contended(False, monkeypatch, fault_plan=plan)
    _assert_equivalent(fast, legacy)
    assert fast[2].datapath.spans_stacked > 0


def test_single_piece_contention_exercises_early_planning(monkeypatch):
    # Sub-stripe requests are single-piece (k == 1) spans, the
    # specialized early-planning path; contention stacks them deep.
    sizes = (16 * KB,) * 4
    fast = _run_contended(True, monkeypatch, sizes=sizes)
    legacy = _run_contended(False, monkeypatch, sizes=sizes)
    _assert_equivalent(fast, legacy)
    assert fast[2].datapath.spans_stacked > 0
