"""Ablation: write-behind vs. synchronous writes.

Compares the same checkpoint-style write burst under (a) synchronous
M_UNIX write-through, (b) server-side write-behind (M_ASYNC), and
(c) client-side delayed writes on top of M_ASYNC — the full
section-7 recommendation.
"""

from conftest import run_once

from repro.machine import MachineConfig, ParagonXPS
from repro.pablo import Tracer
from repro.pfs import PFS, AccessMode
from repro.policies import DelayedWriteBuffer
from repro.sim import Engine
from repro.units import KB

N_WRITES = 150
WRITE_SIZE = 8 * KB


def _run(flavour: str) -> float:
    eng = Engine()
    config = MachineConfig(
        mesh_cols=4, mesh_rows=4, n_compute_nodes=16, n_io_nodes=4
    )
    machine = ParagonXPS(eng, config)
    tracer = Tracer()
    pfs = PFS(eng, machine, tracer=tracer)

    def writer(rank):
        cli = pfs.client(rank)
        if flavour == "write-through":
            handle = yield from cli.open(f"/pfs/ckpt{rank}")
            for _ in range(N_WRITES):
                yield from cli.write(handle, WRITE_SIZE)
        else:
            handle = yield from cli.gopen(
                f"/pfs/ckpt{rank}", group=[rank], mode=AccessMode.M_ASYNC
            )
            if flavour == "delayed":
                buf = DelayedWriteBuffer(cli, handle)
                for _ in range(N_WRITES):
                    yield from buf.write(WRITE_SIZE)
                yield from buf.drain()
            else:
                for _ in range(N_WRITES):
                    yield from cli.write(handle, WRITE_SIZE)
        yield from cli.close(handle)

    procs = [eng.process(writer(rank)) for rank in range(4)]
    eng.run(until=eng.all_of(procs))
    wall = eng.now
    eng.run()
    return wall


def test_ablation_write_behind(benchmark):
    results = run_once(
        benchmark,
        lambda: {
            flavour: _run(flavour)
            for flavour in ("write-through", "write-behind", "delayed")
        },
    )
    print(
        f"\nAblation: 4 nodes x {N_WRITES} x {WRITE_SIZE}B checkpoint "
        "writes (wall time to application completion)\n"
        + "\n".join(f"  {k:14s} {v:8.3f}s" for k, v in results.items())
    )
    # Each level of decoupling reduces the application-visible time.
    assert results["write-behind"] < results["write-through"]
    assert results["delayed"] <= results["write-behind"] * 1.05
