"""Binary column files: a trace's nine columns, stored without text.

SDDF (:mod:`~repro.pablo.sddf`) is the interchange format, and reading
it back parses every record.  A column file holds the same trace as an
uncompressed NumPy ``.npz`` archive that loads without a parse, for
stores that keep both forms (the run cache).  It is derived from the
SDDF file and names that file's SHA-256 in its header, so a reader can
tell whether the two still belong together.

Layout: one ``.npy`` member per column in
:data:`~repro.pablo.tracer.COLUMNS` order.  ``node``, ``opcode``,
``start``, ``duration``, ``nbytes`` and ``offset`` keep their trace
dtypes; ``path``, ``mode`` and ``phase`` are ``int32`` codes into
per-column string tables.  A ``header`` member holds UTF-8 JSON text
(as ``uint8``): the format version, the source SHA-256, the trace
metadata exactly as :func:`~repro.pablo.sddf.read_sddf` returns it,
and the string tables.  Nothing is pickled, so :func:`read_columns`
loads with ``allow_pickle=False``.

:func:`read_columns` raises :class:`~repro.errors.TraceError` when the
version or the source SHA-256 differs from the caller's, a member has
the wrong dtype, shape or length, or a string code falls outside its
table.  The zip CRC rejects a flipped data byte.
"""

from __future__ import annotations

import json
import os
from typing import BinaryIO, Dict, List, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.pablo.records import TraceMeta
from repro.pablo.tracer import COLUMNS, Trace

#: Layout version; a reader rejects every other one.
FORMAT_VERSION = 1

#: Columns stored as ``int32`` codes into a string table.
STRING_COLUMNS = ("path", "mode", "phase")

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
    arrays: Dict[str, np.ndarray] = {}
    tables: Dict[str, List[str]] = {}
    for name in COLUMNS:
        if name in STRING_COLUMNS:
            arrays[name], tables[name] = _factorize(trace.column(name))
        else:
            arrays[name] = trace.column(name)
    header = {
        "version": FORMAT_VERSION,
        "source_sha256": source_sha256,
        "meta": _sddf_meta(trace.meta),
        "tables": tables,
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
    for i, name in enumerate(COLUMNS):
        if name in STRING_COLUMNS:
            columns[i] = _decode(name, columns[i], tables.get(name))
    try:
        meta = TraceMeta(**meta_fields)
    except TypeError as exc:
        raise TraceError(f"bad column-file metadata: {exc}") from None
    # Stored in trace order, so no sort; validation costs one pass.
    return Trace.from_columns(*columns, meta=meta, sort=False, validate=True)


def _factorize(column: np.ndarray) -> Tuple[np.ndarray, List[str]]:
    """``column``'s codes into its distinct values, in first-seen
    order.  One dict pass beats ``np.unique`` on object or ``U``
    arrays, which sorts."""
    index: Dict[str, int] = {}
    codes = np.fromiter(
        (index.setdefault(value, len(index)) for value in column.tolist()),
        dtype=np.int32, count=len(column),
    )
    return codes, list(index)


def _decode(name: str, codes: np.ndarray, table) -> np.ndarray:
    """The object column that ``codes`` index in ``table``."""
    if not isinstance(table, list) or not all(
        isinstance(value, str) for value in table
    ):
        raise TraceError(f"column-file {name} table is not a string list")
    # Fancy indexing would wrap a negative code silently.
    if len(codes) and (codes.min() < 0 or codes.max() >= len(table)):
        raise TraceError(f"column-file {name} code outside its table")
    values = np.empty(len(table), dtype=object)
    values[:] = table
    return values[codes]


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
