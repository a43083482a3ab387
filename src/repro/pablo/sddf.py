"""A self-describing trace file format (SDDF-like).

Pablo persisted performance data in SDDF, a self-describing data
format whose files begin with record descriptors.  This module writes
and reads a faithful-in-spirit, line-oriented version: a header block
describing the record fields, metadata attributes, then one record per
line.  Being self-describing, a reader needs no out-of-band schema and
old traces survive field additions: a field the descriptor omits takes
its :class:`~repro.pablo.records.IOEvent` default.  An unknown field, a
missing required one, a wrong field count or an unparsable value
raises :class:`~repro.errors.TraceError`.  The reader parses straight
into the trace's columns; it builds no record objects.
"""

from __future__ import annotations

import dataclasses
import io
import os
from typing import Dict, List, Sequence, TextIO, Union

import numpy as np

from repro.errors import TraceError
from repro.pablo.records import IOEvent, TraceMeta
from repro.pablo.tracer import OP_CODE, Trace, filled_column

_MAGIC = "#SDDF-IO 1"

#: Field name -> type tag, in the order the writer emits them (which is
#: also :meth:`Trace.from_columns` order).
_FIELDS = {
    "node": "int",
    "op": "str",
    "path": "str",
    "start": "float",
    "duration": "float",
    "nbytes": "int",
    "offset": "int",
    "mode": "str",
    "phase": "str",
}

#: Operation value, as SDDF stores it -> column op code.
_OP_CODES = {op.value: code for op, code in OP_CODE.items()}

#: Fields a descriptor may omit, and the value they then take.
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(IOEvent)
             if f.default is not dataclasses.MISSING}

#: Per type tag: the value parser (strings take none) and column dtype.
_PARSERS = {"int": int, "float": float}
_DTYPES = {"int": np.int64, "float": np.float64, "str": object}

#: Data-section characters parsed per chunk, which bounds the reader's
#: transient memory.
_CHUNK_CHARS = 1 << 20


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _unescape(value: str) -> str:
    out = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"t": "\t", "n": "\n", "\\": "\\"}.get(nxt, nxt))
    return "".join(out)


def write_sddf(trace: Trace, destination: Union[str, os.PathLike, TextIO]) -> None:
    """Write ``trace`` to a path or text stream."""
    own = isinstance(destination, (str, os.PathLike))
    stream: TextIO = open(destination, "w") if own else destination  # type: ignore[arg-type]
    try:
        stream.write(_MAGIC + "\n")
        meta = trace.meta
        for key in ("application", "version", "dataset", "os_release"):
            stream.write(f"#attr {key}\t{_escape(getattr(meta, key))}\n")
        stream.write(f"#attr nodes\t{meta.nodes}\n")
        for key, value in sorted(meta.extra.items()):
            stream.write(f"#attr extra.{_escape(str(key))}\t{_escape(str(value))}\n")
        descriptor = " ".join(f"{name}:{tag}" for name, tag in _FIELDS.items())
        stream.write(f"#record IOEvent {descriptor}\n")
        stream.write("#data\n")
        # Columnar export: no record objects are materialized.  The
        # values are Python scalars, so repr() of the floats matches
        # the historical per-event output byte for byte.
        write = stream.write
        for node, op_value, path, start, duration, nbytes, offset, mode, \
                phase in trace.export_rows():
            write(
                f"{node}\t{op_value}\t{_escape(path)}\t{start!r}\t"
                f"{duration!r}\t{nbytes}\t{offset}\t{_escape(mode)}\t"
                f"{_escape(phase)}\n"
            )
    finally:
        if own:
            stream.close()


def read_sddf(source: Union[str, os.PathLike, TextIO]) -> Trace:
    """Read a trace previously written by :func:`write_sddf`."""
    own = isinstance(source, (str, os.PathLike))
    # Records end at "\n" only: the writer leaves a "\r" inside a
    # string field unescaped, and universal newlines would split there.
    stream: TextIO = (
        open(source, "r", newline="\n") if own else source  # type: ignore[arg-type]
    )
    try:
        first = stream.readline().rstrip("\n")
        if first != _MAGIC:
            raise TraceError(f"not an SDDF-IO trace (magic {first!r})")
        meta = TraceMeta()
        names: List[str] = []
        for raw in iter(stream.readline, ""):
            line = raw.rstrip("\n")
            if line.startswith("#attr "):
                key, _, value = line[len("#attr "):].partition("\t")
                if key == "nodes":
                    meta.nodes = int(_column("nodes", "int", [value])[0])
                elif key.startswith("extra."):
                    meta.extra[_unescape(key[6:])] = _unescape(value)
                elif hasattr(meta, key):
                    setattr(meta, key, _unescape(value))
            elif line.startswith("#record "):
                names = _descriptor(line.split()[2:])
            elif line == "#data":
                if not names:
                    raise TraceError("SDDF data section before descriptor")
                break
            elif not line.startswith("#"):
                raise TraceError(f"unexpected SDDF header line {line!r}")
        chunks = [
            _columns(names, lines)
            for lines in iter(lambda: stream.readlines(_CHUNK_CHARS), [])
        ]
    finally:
        if own:
            stream.close()
    columns = [
        np.concatenate(parts)
        for parts in zip(*(chunks or [_columns(list(_FIELDS), [])]))
    ]
    return Trace.from_columns(*columns, meta=meta)


def _descriptor(specs: Sequence[str]) -> List[str]:
    """The field names of a ``#record`` line's ``name:type`` specs."""
    names: List[str] = []
    for spec in specs:
        name, _, tag = spec.partition(":")
        if _FIELDS.get(name) != tag or name in names:
            raise TraceError(f"unknown or repeated SDDF field {spec!r}")
        names.append(name)
    missing = [n for n in _FIELDS if n not in names and n not in _DEFAULTS]
    if missing:
        raise TraceError(f"SDDF descriptor lacks {', '.join(missing)}")
    return names


def _columns(names: Sequence[str], lines: Sequence[str]) -> List[np.ndarray]:
    """The trace columns of a run of data-section lines."""
    records = [line.rstrip("\n").split("\t") for line in lines if line != "\n"]
    for fields in records:
        if len(fields) != len(names):
            raise TraceError(
                f"record has {len(fields)} fields, descriptor has "
                f"{len(names)}"
            )
    text: Dict[str, Sequence[str]] = dict.fromkeys(names, ())
    text.update(zip(names, zip(*records)))
    return [
        _column(name, tag, text[name]) if name in text
        else filled_column(_DEFAULTS[name], len(records), _DTYPES[tag])
        for name, tag in _FIELDS.items()
    ]


def _column(name: str, tag: str, text: Sequence[str]) -> np.ndarray:
    """The ``name`` column parsed from its fields' text."""
    try:
        if name == "op":
            return np.array([_OP_CODES[v] for v in text], dtype=np.int8)
        if tag == "str":
            return np.array(
                [_unescape(v) if "\\" in v else v for v in text], dtype=object
            )
        return np.array(list(map(_PARSERS[tag], text)), dtype=_DTYPES[tag])
    except KeyError as exc:
        raise TraceError(f"unknown SDDF {name} {exc.args[0]!r}") from None
    except (ValueError, OverflowError) as exc:
        raise TraceError(f"bad SDDF {name} value: {exc}") from None


def roundtrip(trace: Trace) -> Trace:
    """Serialize and re-read a trace in memory (testing helper)."""
    buf = io.StringIO()
    write_sddf(trace, buf)
    buf.seek(0)
    return read_sddf(buf)
