"""Binary column files: a trace's nine columns, stored without text.

SDDF (:mod:`~repro.pablo.sddf`) is the interchange format, and reading
it back parses every record.  A column file holds the same trace as
flat little-endian arrays that load without a parse and without a
copy, for stores that keep both forms (the run cache).  It is derived
from the SDDF file and names that file's SHA-256 in its header, so a
reader can tell whether the two still belong together.

Layout (version 3)::

    offset 0   8 bytes   magic, b"REPROCOL"
    offset 8   uint32    CRC-32 of every byte after this field
    offset 12  uint32    header length H, a multiple of 8
    offset 16  H bytes   UTF-8 JSON header, padded with spaces
    16 + H     columns   in COLUMNS order, each padded to 8 bytes

Both prefix integers are little-endian.  The header holds the format
version, the source SHA-256, the record count ``records``, the trace
metadata exactly as :func:`~repro.pablo.sddf.read_sddf` returns it,
and the string tables, each a list of distinct strings in sorted
order.  The columns follow in :data:`~repro.pablo.tracer.COLUMNS`
order, each ``records`` little-endian items of its stored dtype
zero-padded to a multiple of 8 bytes, so every column starts 8-byte
aligned and its offset follows from ``records`` and the dtypes alone.
``node``, ``opcode``, ``start``, ``duration``, ``nbytes`` and
``offset`` keep their trace dtypes; ``path``, ``mode`` and ``phase``
are the trace's ``int32`` codes into its sorted string tables.  The
file ends where the last column's padding ends.  Nothing is pickled,
and neither side encodes or decodes a string column.  Versions 1 and
2 were ``.npz`` archives; a reader rejects them (their magic differs).

:func:`read_columns` maps the file copy-on-write and checks, in this
order: the magic bytes, the CRC-32, the header JSON and its field
types, the version, the source SHA-256, that ``records`` is a
non-negative integer, that the file has exactly the length the header
implies, that each table is a strictly increasing list of strings,
that every string code falls inside its table, and the metadata
fields.  Each rejection raises :class:`~repro.errors.TraceError`; a
missing or unreadable file raises ``OSError``.

The returned trace's columns are NumPy views of the private
(``mmap.ACCESS_COPY``) mapping, so a load reads pages the page cache
already holds instead of copying them into fresh memory.  The columns
stay writable; a write lands in the process's private pages and never
reaches the file.  The columns keep the mapping alive, and nothing
closes it explicitly.  Two caveats follow from sharing the file's
pages:

* Truncating or rewriting a column file in place while a process maps
  it is unsupported: a reader can then die of ``SIGBUS`` or see the
  data change.  Replace the file (write a new one and ``os.replace``
  it) or unlink it instead; a mapping keeps the old inode's bytes.
* The disk space of an unlinked column file is freed only when the
  last mapping of it goes, that is, when the last trace loaded from
  it is collected.  Until then the mapping also holds a duplicate of
  the file's descriptor (Python's ``mmap`` keeps one).
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from typing import BinaryIO, List, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.pablo.records import TraceMeta
from repro.pablo.tracer import COLUMNS, STRING_COLUMNS, Trace

#: Layout version; a reader rejects every other one.
FORMAT_VERSION = 3

#: First bytes of every version-3 column file.
MAGIC = b"REPROCOL"

#: Magic, CRC-32 of everything after the CRC field, header length.
_PREFIX = struct.Struct("<8sII")

#: Where the CRC-32's coverage starts: just after its own field.
_CRC_FROM = 12

#: Columns (and the header) start on multiples of this many bytes.
_ALIGN = 8

#: Stored dtype per column, little-endian.
_STORED = {
    name: np.dtype(kind).newbyteorder("<")
    for name, kind in zip(COLUMNS, (
        np.int64, np.int8, np.int32, np.float64, np.float64, np.int64,
        np.int64, np.int32, np.int32,
    ))
}


def write_columns(
    trace: Trace,
    destination: Union[str, os.PathLike, BinaryIO],
    source_sha256: str,
) -> None:
    """Write ``trace`` as a column file derived from the SDDF file
    whose SHA-256 is ``source_sha256``.

    ``destination`` is a path or a binary stream.  The columns are
    written as ``memoryview``s of the trace's arrays, not copied; the
    CRC-32 is computed over the same views before the first byte is
    written, so the stream need not be seekable."""
    header = json.dumps({
        "version": FORMAT_VERSION,
        "source_sha256": source_sha256,
        "records": len(trace),
        "meta": _sddf_meta(trace.meta),
        "tables": {name: list(trace.table(name)) for name in STRING_COLUMNS},
    }).encode()
    header += b" " * _padding(len(header))
    body: List[Union[bytes, memoryview]] = [header]
    for name in COLUMNS:
        column = (trace.codes(name) if name in STRING_COLUMNS
                  else trace.column(name))
        stored = np.ascontiguousarray(column, dtype=_STORED[name])
        body.append(memoryview(stored).cast("B"))
        body.append(bytes(_padding(stored.nbytes)))
    crc = zlib.crc32(struct.pack("<I", len(header)))
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    body.insert(0, _PREFIX.pack(MAGIC, crc, len(header)))
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "wb") as stream:
            stream.writelines(body)
    else:
        destination.writelines(body)


def read_columns(
    source: Union[str, os.PathLike], source_sha256: str
) -> Trace:
    """The trace in the column file at path ``source``, derived from
    the SDDF file whose SHA-256 is ``source_sha256``."""
    fd = os.open(source, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        # mmap raises ValueError on an empty file.
        if size < _PREFIX.size:
            raise TraceError(f"column file has {size} bytes, shorter than "
                             f"its {_PREFIX.size}-byte prefix")
        mapping = mmap.mmap(fd, size, access=mmap.ACCESS_COPY)
    finally:
        os.close(fd)
    magic, crc, header_len = _PREFIX.unpack_from(mapping)
    if magic != MAGIC:
        raise TraceError("not a version-3 column file (bad magic bytes)")
    if zlib.crc32(memoryview(mapping)[_CRC_FROM:]) != crc:
        raise TraceError("column-file CRC-32 mismatch")
    at = _PREFIX.size + header_len
    try:
        if header_len % _ALIGN or at > size:
            raise ValueError(f"header length {header_len} in {size} bytes")
        header = json.loads(mapping[_PREFIX.size:at])
        version = header["version"]
        digest = header["source_sha256"]
        records = header["records"]
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
    if type(records) is not int or records < 0:
        raise TraceError(f"column-file record count {records!r}")
    expected = at + sum(
        _padded(records * _STORED[name].itemsize) for name in COLUMNS
    )
    if size != expected:
        raise TraceError(f"column file has {size} bytes, "
                         f"{records} records need {expected}")
    columns = []
    for name in COLUMNS:
        columns.append(np.frombuffer(mapping, dtype=_STORED[name],
                                     count=records, offset=at))
        at += _padded(columns[-1].nbytes)
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


def _padding(nbytes: int) -> int:
    """Bytes that pad ``nbytes`` to the next multiple of ``_ALIGN``."""
    return -nbytes % _ALIGN


def _padded(nbytes: int) -> int:
    return nbytes + _padding(nbytes)


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
