"""The Pablo data-capture library.

A :class:`Tracer` collects I/O records as the PFS client emits them.  A
completed capture is a :class:`Trace` with metadata and convenient
NumPy views for the analyses.

Storage is *columnar*, and every trace is built one way: nine
parallel columns handed to :meth:`Trace.from_columns`, which sorts
them stably by ``(start, node)`` and validates them once.  Live
capture appends plain row tuples (or one block per bulk append) that
:meth:`Tracer.finish` turns into column chunks; ``Trace(events)`` goes
through the same row chunks, and the SDDF reader parses straight into
columns.

The string fields ``path``, ``mode`` and ``phase`` hold a few distinct
values per run, so a trace keeps each as ``int32`` codes into a table
of its distinct strings in sorted order (:meth:`Trace.codes`,
:meth:`Trace.table`).  Sorted tables make the codes canonical: every
construction route gives the same codes and tables for the same
records.  A masked sub-trace keeps its parent's tables, so a table may
hold values that no record uses; :meth:`Trace.present` lists only the
values held.  :meth:`Trace.column` still returns a string column as an
object array of ``str``, decoded on first use and kept.

Tables 1-5, CDFs, timelines, classification, merges and SDDF export
read the columns; the Table 1/4 cells, the phase, path and mode
filters and the telemetry breakdown compare codes.  The record view
(``trace.events``, iteration, :meth:`Trace.select`) builds
:class:`~repro.pablo.records.IOEvent` objects on first use, for tests,
tracer extensions and the analyses that keep state per stream or key
(lifetimes, counters, regions, time windows, phase profiles,
bandwidth, replay).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.pablo.records import IOEvent, IOOp, TraceMeta

#: Operation <-> small-integer code mapping for the columnar form.
#: Codes follow the enum declaration order and are stable within a
#: process; they never appear in serialized traces (SDDF stores the
#: string values).
OP_LIST: List[IOOp] = list(IOOp)
OP_CODE = {op: code for code, op in enumerate(OP_LIST)}

#: Column names, in :meth:`Trace.from_columns` order, and their dtypes
#: as :func:`columns_from_rows` builds them.
COLUMNS = (
    "node", "opcode", "path", "start", "duration", "nbytes", "offset",
    "mode", "phase",
)
_DTYPES = (
    np.int64, np.int8, object, np.float64, np.float64, np.int64, np.int64,
    object, object,
)

#: Columns a trace holds as ``int32`` codes into a sorted string table.
STRING_COLUMNS = ("path", "mode", "phase")
_STRING_AT = tuple(COLUMNS.index(name) for name in STRING_COLUMNS)

#: A string column's table: its distinct values, strictly increasing.
Table = Tuple[str, ...]


class Trace:
    """A captured I/O trace: events plus descriptive metadata.

    Internally column-oriented; iteration and ``.events`` expose the
    classic record view.
    """

    __slots__ = ("meta", "_event_cache", "_tables", "_decoded") + tuple(
        "_" + c for c in COLUMNS
    )

    def __init__(
        self, events: Iterable[IOEvent], meta: Optional[TraceMeta] = None
    ) -> None:
        rows = [_row(e) for e in events]
        self._seal(_row_chunk(rows), meta, sort=True, validate=True)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        node: np.ndarray,
        opcode: np.ndarray,
        path: np.ndarray,
        start: np.ndarray,
        duration: np.ndarray,
        nbytes: np.ndarray,
        offset: np.ndarray,
        mode: np.ndarray,
        phase: np.ndarray,
        meta: Optional[TraceMeta] = None,
        sort: bool = True,
        validate: bool = True,
        tables: Optional[Dict[str, Table]] = None,
    ) -> "Trace":
        """Build a trace directly from parallel column arrays.

        ``path``, ``mode`` and ``phase`` are sequences of ``str`` (object
        arrays, say), encoded here; or, with ``tables``, ``int32`` codes
        into those sorted tables, which a route that already holds
        codes passes through unchecked.  ``sort=False`` asserts the
        columns are already ``(start, node)`` ordered (e.g. a mask
        applied to a sorted trace).
        """
        trace = cls.__new__(cls)
        trace._seal(
            [node, opcode, path, start, duration, nbytes, offset, mode,
             phase],
            meta, sort, validate, tables,
        )
        return trace

    def _seal(self, columns, meta, sort: bool, validate: bool,
              tables: Optional[Dict[str, Table]] = None) -> None:
        self.meta = meta or TraceMeta()
        if tables is None:
            tables = {}
            for at, name in zip(_STRING_AT, STRING_COLUMNS):
                columns[at], tables[name] = _encode_strings(columns[at])
        if sort and len(columns[0]) > 1:
            # Stable, so ties keep append order.
            order = np.lexsort((columns[0], columns[3]))
            columns = [column[order] for column in columns]
        for name, column in zip(COLUMNS, columns):
            setattr(self, "_" + name, column)
        self._tables = tables
        self._decoded: Dict[str, np.ndarray] = {}
        self._event_cache: Optional[List[IOEvent]] = None
        if validate:
            bad = (self._duration < 0) | (self._nbytes < 0) | (self._node < 0)
            if bad.any():
                # Build just the first offender in trace order, so the
                # error is that record's own validate() message.
                first = int(np.argmax(bad))
                self._masked(slice(first, first + 1)).events[0].validate()

    # -- record view -------------------------------------------------------
    @property
    def events(self) -> List[IOEvent]:
        """The record-object view, materialized lazily and cached."""
        cache = self._event_cache
        if cache is None:
            cache = self._materialize_events()
            self._event_cache = cache
        return cache

    def _materialize_events(self) -> List[IOEvent]:
        ops = OP_LIST
        # .tolist() yields Python scalars (exact float repr for SDDF).
        return [
            IOEvent(node, ops[code], path, start, duration, nbytes, offset,
                    mode, phase)
            for node, code, path, start, duration, nbytes, offset, mode, phase
            in zip(*(self.column(name).tolist() for name in COLUMNS))
        ]

    def __len__(self) -> int:
        return len(self._start)

    def __iter__(self):
        return iter(self.events)

    # -- vector views ------------------------------------------------------
    def starts(self) -> np.ndarray:
        return self._start.copy()

    def durations(self) -> np.ndarray:
        return self._duration.copy()

    def sizes(self) -> np.ndarray:
        return self._nbytes.copy()

    def nodes(self) -> np.ndarray:
        return self._node.copy()

    def op_codes(self) -> np.ndarray:
        """Small-integer operation codes (indices into ``OP_LIST``)."""
        return self._opcode.copy()

    def column(self, name: str) -> np.ndarray:
        """Column by field name (treat as read-only).  A string column
        is an object array of ``str``, decoded on first use and kept."""
        if name in STRING_COLUMNS:
            decoded = self._decoded.get(name)
            if decoded is None:
                values = np.empty(len(self._tables[name]), dtype=object)
                values[:] = self._tables[name]
                decoded = self._decoded[name] = values[self.codes(name)]
            return decoded
        if name not in COLUMNS:
            raise TraceError(f"unknown trace column {name!r}")
        return getattr(self, "_" + name)

    def codes(self, name: str) -> np.ndarray:
        """String column ``name`` as ``int32`` codes into
        :meth:`table` (treat as read-only)."""
        if name not in STRING_COLUMNS:
            raise TraceError(f"{name!r} is not a string trace column")
        return getattr(self, "_" + name)

    def table(self, name: str) -> Table:
        """The sorted distinct strings that :meth:`codes` index."""
        if name not in STRING_COLUMNS:
            raise TraceError(f"{name!r} is not a string trace column")
        return self._tables[name]

    def equals(self, name: str, value: str) -> np.ndarray:
        """Mask of the records whose string field ``name`` is
        ``value``; all ``False`` when the table lacks ``value``."""
        table = self.table(name)
        code = bisect_left(table, value)
        if code == len(table) or table[code] != value:
            return np.zeros(len(self), dtype=bool)
        return self.codes(name) == code

    def present(self, name: str, mask=None) -> List[str]:
        """The non-empty ``name`` values that the records (those at
        ``mask``, if given) hold, sorted."""
        codes = self.codes(name)
        if mask is not None:
            codes = codes[mask]
        table = self.table(name)
        held = np.flatnonzero(np.bincount(codes, minlength=len(table)))
        return [table[code] for code in held.tolist() if table[code]]

    # -- convenience -----------------------------------------------------
    def select(self, predicate: Callable[[IOEvent], bool]) -> "Trace":
        """A sub-trace of events satisfying ``predicate``."""
        mask = np.fromiter(
            (bool(predicate(e)) for e in self.events),
            dtype=bool,
            count=len(self._start),
        )
        return self._masked(mask)

    def _masked(self, mask) -> "Trace":
        """The sub-trace at a boolean mask or slice (order is kept),
        sharing this trace's string tables."""
        return Trace.from_columns(
            *[getattr(self, "_" + name)[mask] for name in COLUMNS],
            meta=self.meta, sort=False, validate=False, tables=self._tables,
        )

    def op_mask(self, op: IOOp) -> np.ndarray:
        return self._opcode == OP_CODE[op]

    def by_op(self, op: IOOp) -> "Trace":
        return self._masked(self.op_mask(op))

    def by_phase(self, phase: str) -> "Trace":
        return self._masked(self.equals("phase", phase))

    def by_path(self, path: str) -> "Trace":
        return self._masked(self.equals("path", path))

    def data_events(self) -> "Trace":
        """Only reads and writes."""
        return self._masked(self.op_mask(IOOp.READ) | self.op_mask(IOOp.WRITE))

    @property
    def total_io_time(self) -> float:
        """Aggregate I/O time: the sum of all operation durations
        across all nodes (the paper's "total I/O time")."""
        return float(self._duration.sum())

    @property
    def total_bytes(self) -> int:
        return int(self._nbytes.sum())

    @property
    def span(self) -> float:
        """Wall-clock span from first start to last completion."""
        if not len(self._start):
            return 0.0
        return float((self._start + self._duration).max() - self._start[0])

    def paths(self) -> List[str]:
        return self.present("path")

    def modes(self) -> List[str]:
        """The access modes the trace exercises, sorted."""
        return self.present("mode")

    def __repr__(self) -> str:
        return (
            f"<Trace {len(self)} events "
            f"app={self.meta.application!r} version={self.meta.version!r}>"
        )


def _encode_strings(values) -> Tuple[np.ndarray, Table]:
    """``values`` (a sequence of ``str``) as ``int32`` codes into the
    sorted table of its distinct values."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return _encode_chunks([values], [len(values)])


def _encode_chunks(
    parts: Sequence[Sequence[str]], counts: Sequence[int]
) -> Tuple[np.ndarray, Table]:
    """One string column's codes and sorted table, given per chunk of
    ``count`` records as each record's value or as the single value
    that all of them share (a bulk block)."""
    table = tuple(sorted(set().union(*parts)))
    index = {value: code for code, value in enumerate(table)}
    codes = np.empty(sum(counts), dtype=np.int32)
    at = 0
    for part, count in zip(parts, counts):
        if len(part) == count:
            codes[at:at + count] = np.fromiter(
                map(index.__getitem__, part), dtype=np.int32, count=count
            )
        else:
            codes[at:at + count] = index[part[0]]
        at += count
    return codes, table


def columns_from_rows(rows: Sequence[Tuple]) -> List[np.ndarray]:
    """The nine trace columns of ``(node, op, path, start, duration,
    nbytes, offset, mode, phase)`` row tuples, in row order, string
    columns as object arrays."""
    columns = _row_chunk(rows)
    for at in _STRING_AT:
        column = np.empty(len(rows), dtype=object)
        column[:] = columns[at]
        columns[at] = column
    return columns


def _row_chunk(rows: Sequence[Tuple]) -> list:
    """The columns of ``rows``, string columns as tuples of values."""
    if not rows:
        return [() if dtype is object else np.empty(0, dtype=dtype)
                for dtype in _DTYPES]
    node, op, path, start, duration, nbytes, offset, mode, phase = zip(*rows)
    return [
        np.array(node, dtype=np.int64),
        np.fromiter((OP_CODE[o] for o in op), dtype=np.int8, count=len(rows)),
        path,
        np.array(start, dtype=np.float64),
        np.array(duration, dtype=np.float64),
        np.array(nbytes, dtype=np.int64),
        np.array(offset, dtype=np.int64),
        mode,
        phase,
    ]


def _row(e: IOEvent) -> Tuple:
    return (e.node, e.op, e.path, e.start, e.duration, e.nbytes, e.offset,
            e.mode, e.phase)


def filled_column(value, n: int, dtype) -> np.ndarray:
    """A column of ``n`` copies of ``value`` (one shared object in an
    object column)."""
    column = np.empty(n, dtype=dtype)
    column[:] = value
    return column


class _ColumnBlock:
    """One bulk append: many records sharing the scalar fields.

    The per-record fields (``starts``/``durations``/``nbytes``/
    ``offsets``) are plain Python lists; :meth:`Tracer.finish` expands
    the block into a column chunk.  A block occupies a single slot in
    the tracer's row list, so relative order with neighbouring
    per-record tuples (and therefore per-node append order, the sort
    tie-breaker) is preserved.
    """

    __slots__ = (
        "node", "op", "path", "mode", "phase",
        "starts", "durations", "nbytes", "offsets",
    )

    def __init__(
        self, node, op, path, mode, phase, starts, durations, nbytes, offsets
    ) -> None:
        self.node = node
        self.op = op
        self.path = path
        self.mode = mode
        self.phase = phase
        self.starts = starts
        self.durations = durations
        self.nbytes = nbytes
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.starts)

    def columns(self) -> list:
        """The block's column chunk, each string column as its one
        shared value."""
        m = len(self.starts)
        return [
            filled_column(self.node, m, np.int64),
            filled_column(OP_CODE[self.op], m, np.int8),
            (self.path,),
            np.array(self.starts, dtype=np.float64),
            np.array(self.durations, dtype=np.float64),
            np.array(self.nbytes, dtype=np.int64),
            np.array(self.offsets, dtype=np.int64),
            (self.mode,),
            (self.phase,),
        ]


class Tracer:
    """The live data-capture sink attached to a PFS instance.

    Supports optional *extensions* (callables invoked on every record
    before it is stored) mirroring Pablo's "data analysis extensions"
    that could process events prior to recording.  The hot capture path
    (:meth:`record_fields`) appends a plain tuple per record; an
    :class:`~repro.pablo.records.IOEvent` is only constructed when an
    extension needs one.  Batch submitters use :meth:`record_columns`
    to append a whole column block in one call.
    """

    def __init__(self, meta: Optional[TraceMeta] = None) -> None:
        self.meta = meta or TraceMeta()
        self._rows: List[Tuple] = []
        self._extensions: List[Callable[[IOEvent], None]] = []
        self._enabled = True
        #: Bulk capture accounting: record_columns calls and the extra
        #: records they contributed beyond their single row slot.
        self.bulk_appends = 0
        self._block_extra = 0

    def add_extension(self, fn: Callable[[IOEvent], None]) -> None:
        """Register a per-event processing extension."""
        if not callable(fn):
            raise TraceError(f"extension must be callable, got {fn!r}")
        self._extensions.append(fn)

    def record(self, event: IOEvent) -> None:
        """Capture one event (called by the PFS client)."""
        if not self._enabled:
            return
        for fn in self._extensions:
            fn(event)
        self._rows.append(_row(event))

    def record_fields(
        self,
        node: int,
        op: IOOp,
        path: str,
        start: float,
        duration: float,
        nbytes: int = 0,
        offset: int = -1,
        mode: str = "",
        phase: str = "",
    ) -> None:
        """Capture one event without allocating a record object."""
        if not self._enabled:
            return
        if self._extensions:
            self.record(IOEvent(
                node, op, path, start, duration, nbytes, offset, mode, phase
            ))
            return
        self._rows.append(
            (node, op, path, start, duration, nbytes, offset, mode, phase)
        )

    def record_columns(
        self,
        node: int,
        op: IOOp,
        path: str,
        mode: str,
        phase: str,
        starts: List[float],
        durations: List[float],
        nbytes: List[int],
        offsets: List[int],
    ) -> None:
        """Capture a whole batch of records in one append.

        All records share ``node``/``op``/``path``/``mode``/``phase``;
        the four list arguments are parallel per-record columns.  With
        extensions registered this degrades to per-record capture so
        every extension still sees each event.
        """
        if not self._enabled:
            return
        count = len(starts)
        if not (count == len(durations) == len(nbytes) == len(offsets)):
            raise TraceError(
                "record_columns: column lengths differ "
                f"({count}/{len(durations)}/{len(nbytes)}/{len(offsets)})"
            )
        if count == 0:
            return
        if self._extensions:
            for i in range(count):
                self.record_fields(
                    node, op, path, starts[i], durations[i],
                    nbytes[i], offsets[i], mode, phase,
                )
            return
        self._rows.append(
            _ColumnBlock(
                node, op, path, mode, phase, starts, durations, nbytes,
                offsets,
            )
        )
        self.bulk_appends += 1
        self._block_extra += count - 1

    def pause(self) -> None:
        """Stop capturing (instrumentation off)."""
        self._enabled = False

    def resume(self) -> None:
        self._enabled = True

    @property
    def event_count(self) -> int:
        return len(self._rows) + self._block_extra

    def finish(self) -> Trace:
        """Seal the capture into an analyzable :class:`Trace`.

        Each run of per-record tuples becomes one column chunk and each
        bulk block another.  The chunks concatenate in append order,
        which keeps per-node order: all the stable ``(start, node)``
        sort needs to break ties as a per-record capture would.  The
        string columns are encoded per chunk, without object arrays: a
        block costs one table lookup per column.
        """
        rows = self._rows
        chunks = []
        begin = 0
        for end in [i for i, row in enumerate(rows)
                    if type(row) is _ColumnBlock]:
            if end > begin:
                chunks.append(_row_chunk(rows[begin:end]))
            chunks.append(rows[end].columns())
            begin = end + 1
        if begin < len(rows) or not chunks:
            chunks.append(_row_chunk(rows[begin:]))
        counts = [len(chunk[3]) for chunk in chunks]
        columns = []
        tables = {}
        for name, parts in zip(COLUMNS, zip(*chunks)):
            if name in STRING_COLUMNS:
                codes, tables[name] = _encode_chunks(parts, counts)
                columns.append(codes)
            else:
                columns.append(
                    parts[0] if len(parts) == 1 else np.concatenate(parts)
                )
        return Trace.from_columns(*columns, meta=self.meta, tables=tables)

    def __repr__(self) -> str:
        return f"<Tracer events={len(self._rows)} enabled={self._enabled}>"
