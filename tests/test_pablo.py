"""Unit tests for the Pablo tracing and summary toolkit."""

import io

import pytest

from repro.errors import TraceError
from repro.pablo import (
    IOEvent,
    IOOp,
    Trace,
    TraceMeta,
    Tracer,
    file_lifetime_summaries,
    file_region_summaries,
    filter_events,
    group_by,
    merge_traces,
    read_sddf,
    sort_events,
    time_window_summaries,
    write_sddf,
)
from repro.pablo.sddf import roundtrip
from repro.pablo.tracer import columns_from_rows


def ev(node=0, op=IOOp.READ, path="/f", start=0.0, duration=0.01,
       nbytes=100, offset=0, mode="M_UNIX", phase="p1"):
    return IOEvent(node=node, op=op, path=path, start=start,
                   duration=duration, nbytes=nbytes, offset=offset,
                   mode=mode, phase=phase)


# ---------------------------------------------------------------- records
def test_event_end():
    e = ev(start=1.0, duration=0.5)
    assert e.end == 1.5


def test_event_validate_rejects_negative():
    with pytest.raises(ValueError):
        ev(duration=-1).validate()
    with pytest.raises(ValueError):
        ev(nbytes=-1).validate()
    with pytest.raises(ValueError):
        ev(node=-1).validate()


# ---------------------------------------------------------------- tracer
def test_tracer_collects_and_finishes():
    tracer = Tracer(TraceMeta(application="APP", nodes=4))
    tracer.record(ev(start=2.0))
    tracer.record(ev(start=1.0))
    trace = tracer.finish()
    assert len(trace) == 2
    # Events sorted by start time.
    assert trace.events[0].start == 1.0
    assert trace.meta.application == "APP"


def test_tracer_pause_resume():
    tracer = Tracer()
    tracer.record(ev())
    tracer.pause()
    tracer.record(ev())
    tracer.resume()
    tracer.record(ev())
    assert tracer.event_count == 2


def test_tracer_extension_called():
    seen = []
    tracer = Tracer()
    tracer.add_extension(lambda e: seen.append(e.op))
    tracer.record(ev(op=IOOp.WRITE))
    assert seen == [IOOp.WRITE]


def test_tracer_extension_must_be_callable():
    tracer = Tracer()
    with pytest.raises(TraceError):
        tracer.add_extension("nope")


# ---------------------------------------------------------------- trace views
def test_trace_selectors():
    trace = Trace([
        ev(op=IOOp.READ, path="/a", phase="p1"),
        ev(op=IOOp.WRITE, path="/b", phase="p2"),
        ev(op=IOOp.SEEK, path="/a", phase="p1", nbytes=0),
    ])
    assert len(trace.by_op(IOOp.READ)) == 1
    assert len(trace.by_path("/a")) == 2
    assert len(trace.by_phase("p1")) == 2
    assert len(trace.data_events()) == 2
    assert trace.paths() == ["/a", "/b"]


def test_sub_trace_keeps_tables_but_lists_present_values():
    trace = Trace([
        ev(op=IOOp.READ, path="/a", mode="M_UNIX", phase="p1"),
        ev(op=IOOp.WRITE, path="/b", mode="M_RECORD", phase="p2"),
        ev(op=IOOp.SEEK, path="", mode="", phase="p1", nbytes=0),
    ])
    assert trace.table("path") == ("", "/a", "/b")
    assert trace.paths() == ["/a", "/b"]
    assert trace.modes() == ["M_RECORD", "M_UNIX"]
    reads = trace.by_op(IOOp.READ)
    for name in ("path", "mode", "phase"):
        assert reads.table(name) == trace.table(name)
    assert reads.paths() == ["/a"]
    assert reads.modes() == ["M_UNIX"]
    # The string column view decodes the codes once and keeps it.
    assert reads.column("path").tolist() == ["/a"]
    assert reads.column("path") is reads.column("path")


def test_absent_string_value_selects_nothing():
    trace = Trace([ev(phase="p1"), ev(phase="p3")])
    assert len(trace.by_phase("absent")) == 0
    # Before the first table entry, between two, and after the last.
    for value in ("", "p2", "zz"):
        mask = trace.equals("phase", value)
        assert mask.dtype == bool and mask.shape == (2,)
        assert not mask.any()
    assert trace.equals("phase", "p3").tolist() == [False, True]


def test_trace_totals():
    trace = Trace([
        ev(start=0.0, duration=1.0, nbytes=100),
        ev(start=5.0, duration=2.0, nbytes=200),
    ])
    assert trace.total_io_time == pytest.approx(3.0)
    assert trace.total_bytes == 300
    assert trace.span == pytest.approx(7.0)


def test_trace_numpy_views():
    trace = Trace([ev(start=1.0, nbytes=10, node=3)])
    assert trace.starts().tolist() == [1.0]
    assert trace.sizes().tolist() == [10]
    assert trace.nodes().tolist() == [3]


# ---------------------------------------------------------------- sddf
def test_sddf_roundtrip_preserves_everything():
    meta = TraceMeta(application="ESCAT", version="B", dataset="ethylene",
                     nodes=128, os_release="OSF/1 R1.2",
                     extra={"note": "test"})
    trace = Trace([
        ev(node=5, op=IOOp.WRITE, path="/pfs/quad.ch0", start=1.25,
           duration=0.0625, nbytes=2048, offset=4096, mode="M_ASYNC",
           phase="phase-2"),
        ev(node=0, op=IOOp.GOPEN, path="/pfs/with\ttab", start=0.5,
           duration=0.125, nbytes=0, offset=-1, mode="", phase=""),
    ], meta)
    back = roundtrip(trace)
    assert len(back) == len(trace)
    assert back.meta.application == "ESCAT"
    assert back.meta.nodes == 128
    assert back.meta.extra == {"note": "test"}
    for a, b in zip(trace.events, back.events):
        assert (a.node, a.op, a.path, a.start, a.duration, a.nbytes,
                a.offset, a.mode, a.phase) == (
            b.node, b.op, b.path, b.start, b.duration, b.nbytes,
            b.offset, b.mode, b.phase)


def test_sddf_rejects_bad_magic():
    with pytest.raises(TraceError):
        read_sddf(io.StringIO("not a trace\n"))


def test_sddf_rejects_malformed_record():
    buf = io.StringIO()
    write_sddf(Trace([ev()]), buf)
    text = buf.getvalue().rstrip("\n") + "\textra_column\n"
    with pytest.raises(TraceError):
        read_sddf(io.StringIO(text))


def test_sddf_file_roundtrip(tmp_path):
    path = tmp_path / "trace.sddf"
    trace = Trace([ev()])
    write_sddf(trace, path)
    back = read_sddf(path)
    assert len(back) == 1


def test_sddf_file_roundtrip_keeps_carriage_returns(tmp_path):
    # The writer leaves "\r" unescaped, so the reader must end records
    # at "\n" only; a CRLF file then fails the magic-line check.
    path = tmp_path / "trace.sddf"
    trace = Trace([ev(path="/a\rb", mode="M_\rUNIX", phase="\rp1\r"),
                   ev(start=1.0)])
    write_sddf(trace, path)
    back = read_sddf(path)
    assert [(e.path, e.mode, e.phase) for e in back.events] == [
        ("/a\rb", "M_\rUNIX", "\rp1\r"), ("/f", "M_UNIX", "p1"),
    ]
    crlf = tmp_path / "crlf.sddf"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(TraceError):
        read_sddf(crlf)


_MINIMAL = "node:int op:str path:str start:float duration:float"


@pytest.mark.parametrize("descriptor, record", [
    pytest.param(_MINIMAL + " color:str", "0\tread\t/f\t0.0\t1.0\tred",
                 id="unknown-field"),
    pytest.param("op:str path:str start:float duration:float",
                 "read\t/f\t0.0\t1.0", id="missing-node"),
    pytest.param(_MINIMAL.replace("node:int", "node:float"),
                 "0\tread\t/f\t0.0\t1.0", id="wrong-type"),
    pytest.param(_MINIMAL, "0\tfetch\t/f\t0.0\t1.0", id="unknown-op"),
    pytest.param(_MINIMAL, "0\tread\t/f\tsoon\t1.0", id="bad-float"),
    pytest.param(_MINIMAL, "zero\tread\t/f\t0.0\t1.0", id="bad-int"),
    pytest.param(_MINIMAL, f"{1 << 64}\tread\t/f\t0.0\t1.0",
                 id="int-overflow"),
])
def test_sddf_malformed_input_raises_trace_error(descriptor, record):
    text = f"#SDDF-IO 1\n#record IOEvent {descriptor}\n#data\n{record}\n"
    with pytest.raises(TraceError):
        read_sddf(io.StringIO(text))


def test_sddf_omitted_fields_take_record_defaults():
    text = f"#SDDF-IO 1\n#record IOEvent {_MINIMAL}\n#data\n" \
        "3\twrite\t/f\t0.5\t0.25\n"
    (event,) = read_sddf(io.StringIO(text)).events
    assert event == IOEvent(3, IOOp.WRITE, "/f", 0.5, 0.25)


@pytest.mark.parametrize(
    "route", ["Trace(events)", "Tracer.finish", "Trace.from_columns"]
)
def test_construction_routes_name_the_first_bad_record(route):
    # Trace order puts the negative-node record first, so every route
    # raises its validate() message, not the later negative duration.
    records = [ev(node=-1, start=0.0), ev(start=1.0, duration=-0.5)]
    rows = [(e.node, e.op, e.path, e.start, e.duration, e.nbytes, e.offset,
             e.mode, e.phase) for e in records]
    tracer = Tracer()
    for row in rows:
        tracer.record_fields(*row)
    build = {
        "Trace(events)": lambda: Trace(records),
        "Tracer.finish": tracer.finish,
        "Trace.from_columns": lambda: Trace.from_columns(
            *columns_from_rows(rows)
        ),
    }[route]
    with pytest.raises(ValueError, match=r"negative node in IOEvent\(node=-1"):
        build()


# ---------------------------------------------------------------- lifetime
def test_lifetime_summary_counts_and_bytes():
    trace = Trace([
        ev(op=IOOp.OPEN, path="/f", start=0.0, duration=0.1, nbytes=0),
        ev(op=IOOp.READ, path="/f", start=0.2, duration=0.05, nbytes=100),
        ev(op=IOOp.WRITE, path="/f", start=0.3, duration=0.05, nbytes=50),
        ev(op=IOOp.CLOSE, path="/f", start=1.0, duration=0.01, nbytes=0),
    ])
    summaries = file_lifetime_summaries(trace)
    s = summaries["/f"]
    assert s.op(IOOp.READ).count == 1
    assert s.bytes_read == 100
    assert s.bytes_written == 50
    assert s.bytes_accessed == 150
    assert s.total_io_time == pytest.approx(0.21)
    # Open interval: from end of open (0.1) to end of close (1.01).
    assert s.open_node_time == pytest.approx(0.91)


def test_lifetime_multiple_files():
    trace = Trace([
        ev(path="/a", op=IOOp.READ),
        ev(path="/b", op=IOOp.WRITE),
    ])
    summaries = file_lifetime_summaries(trace)
    assert set(summaries) == {"/a", "/b"}


# ---------------------------------------------------------------- windows
def test_time_windows_partition_events():
    trace = Trace([
        ev(start=0.5, op=IOOp.READ, nbytes=10),
        ev(start=1.5, op=IOOp.WRITE, nbytes=20),
        ev(start=5.5, op=IOOp.WRITE, nbytes=30),
    ])
    windows = time_window_summaries(trace, window=1.0)
    assert len(windows) == 6  # covers up to last end
    assert windows[0].op_counts[IOOp.READ] == 1
    assert windows[1].bytes_written == 20
    assert windows[5].bytes_written == 30
    assert windows[3].total_operations == 0  # gap stays visible


def test_time_windows_bandwidth():
    trace = Trace([ev(start=0.0, op=IOOp.READ, nbytes=1000)])
    w = time_window_summaries(trace, window=2.0)[0]
    assert w.read_bandwidth == pytest.approx(500.0)


def test_time_windows_invalid_window():
    from repro.errors import AnalysisError
    with pytest.raises(AnalysisError):
        time_window_summaries(Trace([ev()]), window=0)


def test_time_windows_empty_trace():
    assert time_window_summaries(Trace([]), window=1.0) == []


# ---------------------------------------------------------------- regions
def test_region_summary_attributes_bytes():
    trace = Trace([
        ev(op=IOOp.WRITE, path="/f", offset=0, nbytes=100, node=1),
        ev(op=IOOp.READ, path="/f", offset=50, nbytes=100, node=2),
    ])
    regions = file_region_summaries(trace, "/f", region_size=100)
    assert len(regions) == 2
    assert regions[0].bytes_written == 100
    assert regions[0].bytes_read == 50
    assert regions[1].bytes_read == 50
    assert regions[0].sharing_degree == 2


def test_region_spanning_request_counted_in_each_region():
    trace = Trace([ev(op=IOOp.READ, path="/f", offset=0, nbytes=250)])
    regions = file_region_summaries(trace, "/f", region_size=100)
    assert [r.reads for r in regions] == [1, 1, 1]
    assert sum(r.bytes_read for r in regions) == 250


def test_region_other_files_ignored():
    trace = Trace([ev(op=IOOp.READ, path="/other", offset=0, nbytes=10)])
    assert file_region_summaries(trace, "/f", region_size=100) == []


# ---------------------------------------------------------------- reduction
def test_group_by_node():
    trace = Trace([ev(node=0), ev(node=1), ev(node=0)])
    groups = group_by(trace, lambda e: e.node)
    assert len(groups[0]) == 2
    assert len(groups[1]) == 1


def test_merge_traces_time_ordered():
    t1 = Trace([ev(start=5.0)])
    t2 = Trace([ev(start=1.0)])
    merged = merge_traces([t1, t2])
    assert [e.start for e in merged.events] == [1.0, 5.0]


def test_merge_zero_traces_rejected():
    with pytest.raises(TraceError):
        merge_traces([])


def test_sort_and_filter():
    trace = Trace([ev(duration=0.5), ev(duration=0.1)])
    by_duration = sort_events(trace, key=lambda e: e.duration)
    assert by_duration[0].duration == 0.1
    small = filter_events(trace, lambda e: e.duration < 0.2)
    assert len(small) == 1
