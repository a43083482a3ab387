"""The Pablo data-capture library.

A :class:`Tracer` collects I/O records as the PFS client emits them.  A
completed capture is a :class:`Trace` with metadata and convenient
NumPy views for the analyses.

Storage is *columnar*, and every trace is built one way: nine
parallel NumPy columns handed to :meth:`Trace.from_columns`, which
sorts them stably by ``(start, node)`` and validates them once.  Live
capture appends plain row tuples (or one block per bulk append) that
:func:`columns_from_rows` turns into columns, as it does for
``Trace(events)``; the SDDF reader parses straight into columns.

Tables 1-5, CDFs, timelines, classification, merges and SDDF export
read the columns.  The record view (``trace.events``, iteration,
:meth:`Trace.select`) builds :class:`~repro.pablo.records.IOEvent`
objects on first use, for tests, tracer extensions and the analyses
that keep state per stream or key (lifetimes, counters, regions, time
windows, phase profiles, bandwidth, replay).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.pablo.records import IOEvent, IOOp, TraceMeta

#: Operation <-> small-integer code mapping for the columnar form.
#: Codes follow the enum declaration order and are stable within a
#: process; they never appear in serialized traces (SDDF stores the
#: string values).
OP_LIST: List[IOOp] = list(IOOp)
OP_CODE = {op: code for code, op in enumerate(OP_LIST)}
_OP_VALUES = [op.value for op in OP_LIST]

#: Column names, in :meth:`Trace.from_columns` order, and their dtypes.
COLUMNS = (
    "node", "opcode", "path", "start", "duration", "nbytes", "offset",
    "mode", "phase",
)
_DTYPES = (
    np.int64, np.int8, object, np.float64, np.float64, np.int64, np.int64,
    object, object,
)


class Trace:
    """A captured I/O trace: events plus descriptive metadata.

    Internally column-oriented; iteration and ``.events`` expose the
    classic record view.
    """

    __slots__ = ("meta", "_event_cache") + tuple("_" + c for c in COLUMNS)

    def __init__(
        self, events: Iterable[IOEvent], meta: Optional[TraceMeta] = None
    ) -> None:
        rows = [_row(e) for e in events]
        self._seal(columns_from_rows(rows), meta, sort=True, validate=True)

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
    ) -> "Trace":
        """Build a trace directly from parallel column arrays.

        ``sort=False`` asserts the columns are already ``(start, node)``
        ordered (e.g. a mask applied to a sorted trace).
        """
        trace = cls.__new__(cls)
        trace._seal(
            [node, opcode, path, start, duration, nbytes, offset, mode,
             phase],
            meta, sort, validate,
        )
        return trace

    def _seal(self, columns, meta, sort: bool, validate: bool) -> None:
        self.meta = meta or TraceMeta()
        if sort and len(columns[0]) > 1:
            # Stable, so ties keep append order.
            order = np.lexsort((columns[0], columns[3]))
            columns = [column[order] for column in columns]
        for name, column in zip(COLUMNS, columns):
            setattr(self, "_" + name, column)
        self._event_cache: Optional[List[IOEvent]] = None
        if validate:
            bad = (self._duration < 0) | (self._nbytes < 0) | (self._node < 0)
            if bad.any():
                # Build just the first offender in trace order, so the
                # error is that record's own validate() message.
                first = int(np.argmax(bad))
                self._masked(slice(first, first + 1)).events[0].validate()

    def _columns(self) -> List[np.ndarray]:
        return [getattr(self, "_" + name) for name in COLUMNS]

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
            in zip(*(column.tolist() for column in self._columns()))
        ]

    def export_rows(self) -> Iterator[Tuple]:
        """Per-record ``(node, op_value, path, start, duration, nbytes,
        offset, mode, phase)`` tuples with Python scalar types, in trace
        order — the SDDF writer's columnar fast path."""
        node, code, *rest = [column.tolist() for column in self._columns()]
        return zip(node, map(_OP_VALUES.__getitem__, code), *rest)

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
        """Internal column by field name (treat as read-only)."""
        try:
            return getattr(self, "_" + name)
        except AttributeError:
            raise TraceError(f"unknown trace column {name!r}") from None

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
        """The sub-trace at a boolean mask or slice (order is kept)."""
        return Trace.from_columns(
            *[column[mask] for column in self._columns()],
            meta=self.meta, sort=False, validate=False,
        )

    def op_mask(self, op: IOOp) -> np.ndarray:
        return self._opcode == OP_CODE[op]

    def by_op(self, op: IOOp) -> "Trace":
        return self._masked(self.op_mask(op))

    def by_phase(self, phase: str) -> "Trace":
        return self._masked(self._phase == phase)

    def by_path(self, path: str) -> "Trace":
        return self._masked(self._path == path)

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
        return sorted({p for p in self._path.tolist() if p})

    def modes(self) -> List[str]:
        """The access modes the trace exercises, sorted."""
        return sorted({m for m in self._mode.tolist() if m})

    def __repr__(self) -> str:
        return (
            f"<Trace {len(self)} events "
            f"app={self.meta.application!r} version={self.meta.version!r}>"
        )


def columns_from_rows(rows: Sequence[Tuple]) -> List[np.ndarray]:
    """The nine trace columns of ``(node, op, path, start, duration,
    nbytes, offset, mode, phase)`` row tuples, in row order."""
    if not rows:
        return [np.empty(0, dtype=dtype) for dtype in _DTYPES]
    node, op, path, start, duration, nbytes, offset, mode, phase = zip(*rows)
    return [
        np.array(node, dtype=np.int64),
        np.fromiter((OP_CODE[o] for o in op), dtype=np.int8, count=len(rows)),
        np.array(path, dtype=object),
        np.array(start, dtype=np.float64),
        np.array(duration, dtype=np.float64),
        np.array(nbytes, dtype=np.int64),
        np.array(offset, dtype=np.int64),
        np.array(mode, dtype=object),
        np.array(phase, dtype=object),
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

    def columns(self) -> List[np.ndarray]:
        m = len(self.starts)
        return [
            filled_column(self.node, m, np.int64),
            filled_column(OP_CODE[self.op], m, np.int8),
            filled_column(self.path, m, object),
            np.array(self.starts, dtype=np.float64),
            np.array(self.durations, dtype=np.float64),
            np.array(self.nbytes, dtype=np.int64),
            np.array(self.offsets, dtype=np.int64),
            filled_column(self.mode, m, object),
            filled_column(self.phase, m, object),
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
        sort needs to break ties as a per-record capture would.
        """
        rows = self._rows
        chunks = []
        begin = 0
        for end in [i for i, row in enumerate(rows)
                    if type(row) is _ColumnBlock]:
            if end > begin:
                chunks.append(columns_from_rows(rows[begin:end]))
            chunks.append(rows[end].columns())
            begin = end + 1
        if begin < len(rows) or not chunks:
            chunks.append(columns_from_rows(rows[begin:]))
        columns = (
            chunks[0] if len(chunks) == 1
            else [np.concatenate(parts) for parts in zip(*chunks)]
        )
        return Trace.from_columns(*columns, meta=self.meta)

    def __repr__(self) -> str:
        return f"<Tracer events={len(self._rows)} enabled={self._enabled}>"
