"""Property-based tests (hypothesis) on core data structures.

Each property pits an implementation against a trivially correct
reference model or a mathematical invariant:

- ExtentMap vs. a byte-array "last writer wins" model;
- StripeLayout piece decomposition (coverage, disjointness, inverses);
- SizeCDF monotonicity/normalization;
- tile_sizes conservation;
- SDDF round-trip fidelity;
- trace construction routes (records, per-record and bulk capture,
  SDDF files, column files) agreeing column for column;
- TurnTaker service order;
- ReadBuffer coherence.
"""

import io
import itertools
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.apps.base import tile_sizes
from repro.core.cdf import cdf_from_sizes
from repro.pablo import IOEvent, IOOp, Trace, TraceMeta, Tracer
from repro.pablo.colfile import read_columns, write_columns
from repro.pablo.sddf import read_sddf, write_sddf
from repro.pablo.tracer import COLUMNS, STRING_COLUMNS
from repro.pfs import ExtentMap, StripeLayout


# ------------------------------------------------------------- ExtentMap
@st.composite
def write_sequences(draw):
    n = draw(st.integers(1, 30))
    writes = []
    for token in range(1, n + 1):
        start = draw(st.integers(0, 500))
        length = draw(st.integers(1, 200))
        writes.append((start, start + length, token))
    return writes


@given(write_sequences())
@settings(max_examples=200, deadline=None)
def test_extent_map_matches_byte_model(writes):
    m = ExtentMap()
    model = {}
    for start, end, token in writes:
        m.write(start, end, token)
        for b in range(start, end):
            model[b] = token
    # Compare over the full touched range.
    horizon = max(end for _, end, _ in writes)
    extents = m.read(0, horizon)
    reconstructed = {}
    for e in extents:
        for b in range(e.start, e.end):
            assert b not in reconstructed, "extents overlap"
            reconstructed[b] = e.token
    assert reconstructed == model
    assert m.high_water == max(end for _, end, _ in writes)


@given(write_sequences(), st.integers(0, 600), st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_extent_map_read_is_clipped_and_sorted(writes, start, length):
    m = ExtentMap()
    for s, e, t in writes:
        m.write(s, e, t)
    out = m.read(start, start + length)
    for e in out:
        assert start <= e.start < e.end <= start + length
    # Sorted and non-overlapping.
    for a, b in zip(out, out[1:]):
        assert a.end <= b.start
    assert m.covered_bytes(start, start + length) == \
        sum(e.end - e.start for e in out)


@given(write_sequences())
@settings(max_examples=50, deadline=None)
def test_extent_map_interleaved_reads_consistent(writes):
    """Reading between writes never changes the final state."""
    m1, m2 = ExtentMap(), ExtentMap()
    for s, e, t in writes:
        m1.write(s, e, t)
        m1.read(0, 50)  # force intermediate builds
        m2.write(s, e, t)
    horizon = max(e for _, e, _ in writes)
    assert [
        (x.start, x.end, x.token) for x in m1.read(0, horizon)
    ] == [
        (x.start, x.end, x.token) for x in m2.read(0, horizon)
    ]


# ------------------------------------------------------------- striping
@given(
    stripe=st.integers(1, 1 << 20),
    n_io=st.integers(1, 64),
    offset=st.integers(0, 1 << 30),
    nbytes=st.integers(0, 1 << 22),
)
@settings(max_examples=200, deadline=None)
def test_stripe_pieces_partition_request(stripe, n_io, offset, nbytes):
    layout = StripeLayout(stripe_size=stripe, n_io_nodes=n_io)
    pieces = layout.pieces(offset, nbytes)
    # Pieces exactly tile [offset, offset+nbytes).
    assert sum(p.nbytes for p in pieces) == nbytes
    pos = offset
    for p in pieces:
        assert p.file_offset == pos
        assert 0 <= p.io_node < n_io
        assert p.nbytes >= 1
        # No piece crosses a stripe boundary.
        assert (p.file_offset // stripe) == \
            ((p.file_offset + p.nbytes - 1) // stripe)
        # Piece placement agrees with the point functions.
        assert p.io_node == layout.io_node_of(p.file_offset)
        assert p.disk_offset == layout.disk_offset_of(p.file_offset)
        pos += p.nbytes
    # The datapath's per-server decomposition is the same pieces,
    # regrouped by I/O node in first-touch order.
    groups = {}
    for p in pieces:
        group = groups.setdefault(p.io_node, (p.io_node, [], [], []))
        group[1].append(p.disk_offset)
        group[2].append(p.file_offset)
        group[3].append(p.nbytes)
    assert layout.stripe_groups(offset, nbytes) == list(groups.values())


@given(
    stripe=st.integers(1, 1 << 16),
    n_io=st.integers(1, 16),
    offsets=st.lists(st.integers(0, 1 << 24), min_size=2, max_size=20,
                     unique=True),
)
@settings(max_examples=100, deadline=None)
def test_stripe_distinct_offsets_distinct_disk_addresses(stripe, n_io, offsets):
    """The (io_node, disk_offset) map is injective on byte addresses."""
    layout = StripeLayout(stripe_size=stripe, n_io_nodes=n_io)
    seen = {}
    for off in offsets:
        key = (layout.io_node_of(off), layout.disk_offset_of(off))
        assert key not in seen, f"{off} and {seen[key]} collide at {key}"
        seen[key] = off


# ------------------------------------------------------------------- CDF
@given(st.lists(st.integers(0, 10**7), min_size=1, max_size=500))
@settings(max_examples=200, deadline=None)
def test_cdf_invariants(sizes):
    cdf = cdf_from_sizes(sizes)
    assert (np.diff(cdf.count_cdf) >= -1e-12).all()
    assert (np.diff(cdf.data_cdf) >= -1e-12).all()
    assert cdf.count_cdf[-1] == 1.0
    assert abs(cdf.data_cdf[-1] - 1.0) < 1e-9
    assert cdf.n_requests == len(sizes)
    assert cdf.total_bytes == sum(sizes)
    # Count CDF at the maximum size includes everything.
    assert cdf.fraction_of_requests_at_or_below(max(sizes)) == 1.0
    # Below the minimum, nothing.
    if min(sizes) > 0:
        assert cdf.fraction_of_requests_at_or_below(min(sizes) - 1) == 0.0


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=200),
       st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_cdf_percentile_consistency(sizes, fraction):
    cdf = cdf_from_sizes(sizes)
    p = cdf.percentile_size(fraction)
    assert cdf.fraction_of_requests_at_or_below(p) >= min(fraction, 1.0) - 1e-9


# ------------------------------------------------------------ tile_sizes
@given(
    total=st.integers(0, 10**6),
    sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_tile_sizes_conserves_total(total, sizes):
    out = tile_sizes(total, sizes)
    assert sum(out) == total
    assert all(1 <= s <= max(sizes) for s in out)


# ------------------------------------------------------------------ SDDF
_paths = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)


@st.composite
def trace_events(draw):
    return IOEvent(
        node=draw(st.integers(0, 511)),
        op=draw(st.sampled_from(list(IOOp))),
        path=draw(_paths),
        start=draw(st.floats(0, 1e6, allow_nan=False, allow_infinity=False)),
        duration=draw(st.floats(0, 1e3, allow_nan=False,
                                allow_infinity=False)),
        nbytes=draw(st.integers(0, 1 << 30)),
        offset=draw(st.integers(-1, 1 << 40)),
        mode=draw(st.sampled_from(["", "M_UNIX", "M_RECORD", "M_ASYNC"])),
        phase=draw(_paths),
    )


@given(st.lists(trace_events(), max_size=40))
@settings(max_examples=100, deadline=None)
def test_sddf_roundtrip_property(events):
    trace = Trace(events)
    buf = io.StringIO()
    write_sddf(trace, buf)
    buf.seek(0)
    back = read_sddf(buf)
    assert len(back) == len(trace)
    for a, b in zip(trace.events, back.events):
        assert a.node == b.node and a.op == b.op and a.path == b.path
        assert a.start == b.start and a.duration == b.duration
        assert a.nbytes == b.nbytes and a.offset == b.offset
        assert a.mode == b.mode and a.phase == b.phase


@st.composite
def tied_event_lists(draw):
    """Events where some re-use an earlier ``(start, node)`` pair, so
    the trace sort has ties to keep in append order."""
    events = draw(st.lists(trace_events(), max_size=40))
    for i in range(1, len(events)):
        if draw(st.booleans()):
            earlier = events[draw(st.integers(0, i - 1))]
            events[i].start, events[i].node = earlier.start, earlier.node
    return events


@st.composite
def trace_metas(draw):
    return TraceMeta(
        application=draw(_paths),
        version=draw(_paths),
        dataset=draw(_paths),
        nodes=draw(st.integers(0, 4096)),
        os_release=draw(_paths),
        extra=draw(st.dictionaries(_paths, _paths, max_size=3)),
    )


#: A string holding every character the SDDF writer escapes, and "\r",
#: which it leaves as is.
_ESCAPED = "a\tb\nc\\d\re"


@given(tied_event_lists(), trace_metas())
@example([], TraceMeta())
@example(
    [IOEvent(0, IOOp.READ, _ESCAPED, 0.0, 1.0, 8, 0, "M_UNIX", _ESCAPED),
     IOEvent(1, IOOp.WRITE, "\r", 0.0, 0.5, 0, -1, "", "\\")],
    TraceMeta(application=_ESCAPED, nodes=2, extra={_ESCAPED: _ESCAPED}),
)
@settings(max_examples=100, deadline=None)
def test_construction_routes_build_identical_columns(events, meta):
    per_record = Tracer()
    for e in events:
        per_record.record_fields(e.node, e.op, e.path, e.start, e.duration,
                                 e.nbytes, e.offset, e.mode, e.phase)
    bulk = Tracer()
    runs = itertools.groupby(
        events, key=lambda e: (e.node, e.op, e.path, e.mode, e.phase)
    )
    for (node, op, path, mode, phase), run in runs:
        run = list(run)
        bulk.record_columns(node, op, path, mode, phase,
                            [e.start for e in run], [e.duration for e in run],
                            [e.nbytes for e in run], [e.offset for e in run])
    reference = Trace(events, meta=meta)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.sddf")
        write_sddf(reference, path)
        reread = read_sddf(path)
        columns_path = os.path.join(tmp, "trace.cols")
        write_columns(reference, columns_path, "0" * 64)
        reloaded = read_columns(columns_path, "0" * 64)
    assert reloaded.meta == reread.meta
    # Stable: tied records keep their append order.
    assert reference.events == sorted(events, key=lambda e: (e.start, e.node))
    for trace in (per_record.finish(), bulk.finish(), reread, reloaded):
        for name in COLUMNS:
            want, got = reference.column(name), trace.column(name)
            assert got.dtype == want.dtype, name
            if want.dtype == object:
                assert got.tolist() == want.tolist(), name
            else:
                assert got.tobytes() == want.tobytes(), name
        # Sorted tables make the string codes canonical.
        for name in STRING_COLUMNS:
            assert trace.codes(name).tobytes() == \
                reference.codes(name).tobytes(), name
            assert trace.table(name) == reference.table(name), name


# ------------------------------------------------------------- TurnTaker
@given(
    parties=st.integers(1, 12),
    arrival_order=st.permutations(list(range(12))),
    rounds=st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_turn_taker_always_serves_in_rank_order(parties, arrival_order, rounds):
    from repro.sim import Engine, TurnTaker

    eng = Engine()
    tt = TurnTaker(eng, parties=parties)
    served = []
    ranks = [r for r in arrival_order if r < parties]

    def node(rank, delay):
        yield eng.timeout(delay)
        for _ in range(rounds):
            yield tt.wait_turn(rank)
            served.append(rank)
            tt.done(rank)
            yield eng.timeout(0.01)

    for pos, rank in enumerate(ranks):
        eng.process(node(rank, pos * 0.001))
    eng.run()
    assert served == list(range(parties)) * rounds
