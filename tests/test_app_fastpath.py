"""Equivalence of the app-layer fast path (``REPRO_FAST_APP``).

Batched submission (``PFS.read_batch`` / ``PFS.write_batch``), the
vectorized channel schedules feeding it, and bulk trace capture are
pure performance features: every workload must produce the
byte-identical SDDF trace — and therefore identical Table-2/Table-3
rows — with the fast path on and off, under both data paths, with and
without fault injection.  These tests drive the full ESCAT and PRISM
version progressions through both datapaths and compare complete
outputs, plus a synthetic write-behind workload whose cache drains
mid-batch.
"""

import io

import pytest

from repro.apps import (
    run_escat,
    run_prism,
    scaled_escat_problem,
    scaled_prism_problem,
)
from repro.core.breakdown import execution_fraction, io_time_breakdown
from repro.faults import FaultPlan
from repro.machine import DiskConfig, MachineConfig, NetworkConfig, ParagonXPS
from repro.pablo import Tracer
from repro.pablo.sddf import write_sddf
from repro.pfs import PFS
from repro.pfs.modes import AccessMode
from repro.sim import Engine
from repro.units import KB

APP_VERSIONS = [
    ("escat", "A"), ("escat", "B"), ("escat", "C"),
    ("prism", "A"), ("prism", "B"), ("prism", "C"),
]


def _run_app(app, version, fault_plan=None):
    if app == "escat":
        problem = scaled_escat_problem(n_nodes=8, records_per_channel=16)
        return run_escat(version, problem, seed=7, fault_plan=fault_plan)
    problem = scaled_prism_problem(n_nodes=8)
    return run_prism(version, problem, seed=7, fault_plan=fault_plan)


def _fingerprint(app, version, fault_plan=None):
    """Everything that must be invariant under the fast path."""
    result = _run_app(app, version, fault_plan=fault_plan)
    out = io.StringIO()
    write_sddf(result.trace, out)
    b = io_time_breakdown(result.trace)
    rows = execution_fraction(result.trace, result.wall_time, n_nodes=8)
    return out.getvalue(), result.wall_time, b.totals, b.counts, rows


def _cell(monkeypatch, fast_datapath, fast_app):
    monkeypatch.setenv("REPRO_FAST_DATAPATH", "1" if fast_datapath else "0")
    monkeypatch.setenv("REPRO_FAST_APP", "1" if fast_app else "0")


@pytest.mark.parametrize("fast_datapath", [True, False], ids=["fd", "ld"])
@pytest.mark.parametrize(
    "app,version", APP_VERSIONS, ids=[f"{a}-{v}" for a, v in APP_VERSIONS]
)
def test_fast_app_matches_stepped(app, version, fast_datapath, monkeypatch):
    _cell(monkeypatch, fast_datapath, True)
    fast = _fingerprint(app, version)
    _cell(monkeypatch, fast_datapath, False)
    stepped = _fingerprint(app, version)
    assert fast == stepped


@pytest.mark.parametrize("fast_datapath", [True, False], ids=["fd", "ld"])
def test_fast_app_matches_stepped_faulted(fast_datapath, monkeypatch):
    """Fault-plan cell: retries and degraded service mid-run must not
    perturb batch equivalence (the eligibility gate consults the fault
    schedule; ineligible windows fall back to stepped submission)."""
    _cell(monkeypatch, fast_datapath, True)
    plan = FaultPlan.seeded(seed=7, horizon=66.0, n_io_nodes=16)
    fast = _fingerprint("escat", "A", fault_plan=plan)
    _cell(monkeypatch, fast_datapath, False)
    plan = FaultPlan.seeded(seed=7, horizon=66.0, n_io_nodes=16)
    stepped = _fingerprint("escat", "A", fault_plan=plan)
    assert fast == stepped


def test_fast_app_counters_fire(monkeypatch):
    """The equivalence above is vacuous if the batch path silently
    falls back everywhere; the run counters prove it engaged."""
    _cell(monkeypatch, True, True)
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    result = _run_app("escat", "A")
    app = result.telemetry["app"]
    assert app["batches_submitted"] > 0
    assert app["batch_bytes"] > 0
    assert app["trace_bulk_appends"] > 0
    assert app["trace_bulk_appends"] <= app["batches_submitted"]


def _wb_world(fast_app, monkeypatch):
    """Sole-opener write-behind workload sized past the cache's dirty
    capacity, so drains land in the middle of submitted batches."""
    monkeypatch.setenv("REPRO_FAST_DATAPATH", "1")
    monkeypatch.setenv("REPRO_FAST_APP", "1" if fast_app else "0")
    eng = Engine()
    machine = ParagonXPS(
        eng,
        MachineConfig(
            mesh_cols=4, mesh_rows=4, n_compute_nodes=16, n_io_nodes=4,
            stripe_size=64 * KB, network=NetworkConfig(), disk=DiskConfig(),
        ),
    )
    tracer = Tracer()
    pfs = PFS(eng, machine, tracer=tracer)
    sizes = [48 * KB] * 64 + [3000, 7777, 65 * KB + 123] * 8

    def proc():
        cli = pfs.client(0)
        h = yield from cli.gopen(
            "/pfs/wb", group=[0], mode=AccessMode.M_ASYNC
        )
        yield from cli.write_batch(h, sizes)
        yield from cli.write_batch(h, sizes)
        yield from cli.close(h)

    eng.process(proc(), name="rank-0")
    eng.run()
    trace = tracer.finish()
    out = io.StringIO()
    write_sddf(trace, out)
    return out.getvalue(), eng.now, pfs.app_batches_submitted


def test_write_behind_drain_mid_batch(monkeypatch):
    fast_sddf, fast_wall, batches = _wb_world(True, monkeypatch)
    stepped_sddf, stepped_wall, _ = _wb_world(False, monkeypatch)
    assert batches > 0  # the batch path engaged, not a silent fallback
    assert fast_sddf == stepped_sddf
    assert fast_wall == stepped_wall
