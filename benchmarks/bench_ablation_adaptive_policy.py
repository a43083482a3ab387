"""Ablation: PPFS-style adaptive policy selection.

A mixed workload (small sequential writes, then small sequential
reads) run (a) naively and (b) through the
:class:`~repro.policies.adaptive.AdaptivePolicy`, which should detect
the patterns and enable aggregation/prefetching automatically — "a
file system that dynamically tunes its policy to match the
requirements of the application access patterns" (section 5.4).
"""

from conftest import run_once

from repro.machine import MachineConfig, ParagonXPS
from repro.pablo import Tracer
from repro.pfs import PFS, AccessMode
from repro.policies import AdaptivePolicy
from repro.sim import Engine
from repro.units import KB

N_OPS = 300
SIZE = 2 * KB


def _run(adaptive: bool):
    eng = Engine()
    config = MachineConfig(
        mesh_cols=4, mesh_rows=4, n_compute_nodes=16, n_io_nodes=4
    )
    machine = ParagonXPS(eng, config)
    tracer = Tracer()
    pfs = PFS(eng, machine, tracer=tracer)
    decisions = []

    def app():
        cli = pfs.client(0)
        handle = yield from cli.gopen(
            "/pfs/mixed", group=[0], mode=AccessMode.M_UNIX
        )
        policy = AdaptivePolicy(cli, handle) if adaptive else None
        for _ in range(N_OPS):
            if policy is not None:
                yield from policy.write(SIZE)
            else:
                yield from cli.write(handle, SIZE)
        if policy is not None:
            yield from policy.finish()
        yield from cli.seek(handle, 0)
        for _ in range(N_OPS):
            if policy is not None:
                yield from policy.read(SIZE)
            else:
                yield from cli.read(handle, SIZE)
        if policy is not None:
            decisions.extend(policy.decisions)
        yield from cli.close(handle)

    eng.process(app())
    eng.run()
    trace = tracer.finish()
    io_time = sum(
        e.duration for e in trace.data_events().events
    )
    return io_time, decisions


def test_ablation_adaptive_policy(benchmark):
    results = run_once(
        benchmark,
        lambda: {"naive": _run(False), "adaptive": _run(True)},
    )
    naive_time, _ = results["naive"]
    adaptive_time, decisions = results["adaptive"]
    print(
        f"\nAblation: {N_OPS} small sequential writes + reads\n"
        f"  naive:    {naive_time:8.3f}s of data-operation time\n"
        f"  adaptive: {adaptive_time:8.3f}s of data-operation time\n"
        f"  decisions: {[(f'{t:.1f}s', d, str(p)) for t, d, p in decisions]}"
    )
    # The policy must have made at least aggregation + prefetch calls.
    kinds = {d for _, d, _ in decisions}
    assert "enable-aggregation" in kinds
    # And it must not be slower than naive.
    assert adaptive_time < naive_time
