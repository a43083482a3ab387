"""Binary column files: a trace's nine columns, stored without text.

SDDF (:mod:`~repro.pablo.sddf`) is the interchange format, and reading
it back parses every record.  A column file holds the same trace as an
uncompressed NumPy ``.npz`` archive that loads without a parse, for
stores that keep both forms (the run cache).  It is derived from the
SDDF file and names that file's SHA-256 in its header, so a reader can
tell whether the two still belong together.

Layout (version 2): one ``.npy`` member per column in
:data:`~repro.pablo.tracer.COLUMNS` order, each exactly as the trace
holds it.  ``node``, ``opcode``, ``start``, ``duration``, ``nbytes``
and ``offset`` keep their trace dtypes; ``path``, ``mode`` and
``phase`` are the trace's ``int32`` codes into its sorted string
tables.  A ``header`` member holds UTF-8 JSON text (as ``uint8``): the
format version, the source SHA-256, the trace metadata exactly as
:func:`~repro.pablo.sddf.read_sddf` returns it, and the string tables,
each a list of distinct strings in sorted order.  Nothing is pickled,
so :func:`read_columns` loads with ``allow_pickle=False``, and neither
side encodes or decodes a string column.  Version 1 stored its tables
in first-seen order; a reader rejects it.

:func:`read_columns` raises :class:`~repro.errors.TraceError` when the
version or the source SHA-256 differs from the caller's, a member has
the wrong dtype, shape or length, a table is not a strictly increasing
list of strings, or a string code falls outside its table.  The zip
CRC rejects a flipped data byte.
"""

from __future__ import annotations

import json
import os
from typing import BinaryIO, Dict, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.pablo.records import TraceMeta
from repro.pablo.tracer import COLUMNS, STRING_COLUMNS, Trace

#: Layout version; a reader rejects every other one.
FORMAT_VERSION = 2

#: Stored dtype per column.
_STORED = dict(zip(COLUMNS, (
    np.int64, np.int8, np.int32, np.float64, np.float64, np.int64, np.int64,
    np.int32, np.int32,
)))

_HEADER = "header"


def write_columns(
    trace: Trace,
    destination: Union[str, os.PathLike, BinaryIO],
    source_sha256: str,
) -> None:
    """Write ``trace`` as a column file derived from the SDDF file
    whose SHA-256 is ``source_sha256``."""
    arrays: Dict[str, np.ndarray] = {
        name: trace.codes(name) if name in STRING_COLUMNS
        else trace.column(name)
        for name in COLUMNS
    }
    header = {
        "version": FORMAT_VERSION,
        "source_sha256": source_sha256,
        "meta": _sddf_meta(trace.meta),
        "tables": {name: list(trace.table(name)) for name in STRING_COLUMNS},
    }
    arrays[_HEADER] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    np.savez(destination, **arrays)


def read_columns(
    source: Union[str, os.PathLike, BinaryIO], source_sha256: str
) -> Trace:
    """The trace in a column file derived from the SDDF file whose
    SHA-256 is ``source_sha256``."""
    archive = np.load(source, allow_pickle=False)
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise TraceError("column file is not an .npz archive")
    with archive:
        try:
            header = json.loads(_member(archive, _HEADER, np.uint8).tobytes())
            version = header["version"]
            digest = header["source_sha256"]
            meta_fields = header["meta"]
            tables = header["tables"]
            if not isinstance(meta_fields, dict) or not isinstance(tables, dict):
                raise TypeError("meta and tables must be JSON objects")
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"bad column-file header: {exc!r}") from None
        if version != FORMAT_VERSION:
            raise TraceError(f"column-file version {version!r}, "
                             f"reader is {FORMAT_VERSION}")
        if digest != source_sha256:
            raise TraceError("column file was derived from another SDDF file")
        columns = [_member(archive, name, _STORED[name]) for name in COLUMNS]
    if any(len(column) != len(columns[0]) for column in columns):
        raise TraceError("column-file columns differ in length")
    checked = {
        name: _table(name, columns[COLUMNS.index(name)], tables.get(name))
        for name in STRING_COLUMNS
    }
    try:
        meta = TraceMeta(**meta_fields)
    except TypeError as exc:
        raise TraceError(f"bad column-file metadata: {exc}") from None
    # Stored in trace order, so no sort; validation costs one pass.
    return Trace.from_columns(*columns, meta=meta, sort=False, validate=True,
                              tables=checked)


def _table(name: str, codes: np.ndarray, table) -> Tuple[str, ...]:
    """``table`` as a trace string table, checked against ``codes``."""
    if not isinstance(table, list) or not all(
        isinstance(value, str) for value in table
    ):
        raise TraceError(f"column-file {name} table is not a string list")
    # Trace.equals bisects the table, so order and uniqueness matter.
    if any(a >= b for a, b in zip(table, table[1:])):
        raise TraceError(f"column-file {name} table is not strictly "
                         "increasing")
    # Fancy indexing would wrap a negative code silently.
    if len(codes) and (codes.min() < 0 or codes.max() >= len(table)):
        raise TraceError(f"column-file {name} code outside its table")
    return tuple(table)


def _member(archive, name: str, dtype) -> np.ndarray:
    """The one-dimensional ``dtype`` member ``name`` of ``archive``."""
    try:
        array = archive[name]
    except KeyError:
        raise TraceError(f"column file lacks {name}") from None
    if array.dtype != dtype or array.ndim != 1:
        raise TraceError(
            f"column-file {name} is {array.dtype}{array.shape}, "
            f"expected one-dimensional {np.dtype(dtype)}"
        )
    return array


def _sddf_meta(meta: TraceMeta) -> dict:
    """``meta`` as :func:`~repro.pablo.sddf.read_sddf` returns it:
    ``nodes`` an int, ``extra`` keys and values strings."""
    return {
        "application": str(meta.application),
        "version": str(meta.version),
        "dataset": str(meta.dataset),
        "nodes": int(meta.nodes),
        "os_release": str(meta.os_release),
        "extra": {str(k): str(v) for k, v in sorted(meta.extra.items())},
    }
