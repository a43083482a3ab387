"""Figure 4: ESCAT write sizes over execution time (versions A, C)."""

from conftest import run_once

from repro.experiments.figures import figure4
from repro.pablo import IOOp


def test_fig4_escat_write_timelines(benchmark, paper_scale):
    fig = run_once(benchmark, lambda: figure4(fast=not paper_scale))
    print("\n" + fig.summary)

    a = fig.series["A"]
    c = fig.series["C"]

    # All writes are small in both versions (paper's y-axis: 0..3000).
    assert a.values.max() <= 3000
    assert c.values.max() <= 3000

    # Version A: node zero coordinates the staging writes using four
    # distinct request sizes (plus the small phase-four result sizes).
    from repro.experiments.runner import escat_result

    result_a = escat_result("A", fast=not paper_scale)
    staging_a = [
        e.nbytes for e in result_a.trace.by_op(IOOp.WRITE).events
        if e.phase == "phase-2-staging-write"
    ]
    # Four principal sizes (plus at most one remainder size from the
    # final piece of each cycle).
    assert 4 <= len(set(staging_a)) <= 5
    assert all(
        e.node == 0 for e in result_a.trace.by_op(IOOp.WRITE).events
    )

    # Version C: the staging writes are one uniform size from all nodes.
    result_c = escat_result("C", fast=not paper_scale)
    staging_c = result_c.trace.select(
        lambda e: e.op == IOOp.WRITE and e.phase == "phase-2-staging-write"
    )
    assert len({e.nbytes for e in staging_c.events}) == 1
    writers = {e.node for e in staging_c.events}
    assert len(writers) == result_c.n_nodes
