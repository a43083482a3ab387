"""Determinism regressions for the simulation core.

The columnar tracer and the on-disk run cache must be invisible in the
results: the same SDDF bytes and the same table rows, however the run
executed.
"""

import hashlib
import io
import json
import os
import shutil
import struct

import numpy as np
import pytest

from repro.apps import run_escat, scaled_escat_problem
from repro.core.breakdown import io_time_breakdown
from repro.errors import TraceError
from repro.experiments import cache
from repro.experiments import runner
from repro.pablo.colfile import read_columns, write_columns
from repro.pablo.sddf import write_sddf
from repro.pablo.tracer import COLUMNS, STRING_COLUMNS, Trace
from repro.sim import Engine

SEED = 1996

#: SHA-256 of the SDDF trace of scaled ESCAT-A (16 nodes, 32 records
#: per channel) at SEED.  There is one DES kernel, so no second kernel
#: can serve as its oracle: the bytes themselves are pinned.  Both
#: datapaths must produce them.
SCALED_ESCAT_A_SHA256 = (
    "21391c0e84c91b0eba9b50aacc739298a3fd026010c071b618c1ac97a0153114"
)


def test_scaled_escat_a_trace_is_pinned():
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    result = run_escat("A", problem, seed=SEED)
    out = io.StringIO()
    write_sddf(result.trace, out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == SCALED_ESCAT_A_SHA256


def test_cached_run_is_bit_identical_to_fresh(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    runner.clear_cache()
    fresh = runner.escat_result("A", fast=True, seed=SEED)

    # Drop the in-process memo so the next call must hit the disk.
    runner.clear_cache()
    cached = runner.escat_result("A", fast=True, seed=SEED)
    assert cached is not fresh  # really reloaded, not memoized

    fresh_out, cached_out = io.StringIO(), io.StringIO()
    write_sddf(fresh.trace, fresh_out)
    write_sddf(cached.trace, cached_out)
    assert fresh_out.getvalue() == cached_out.getvalue()
    fresh_b = io_time_breakdown(fresh.trace)
    cached_b = io_time_breakdown(cached.trace)
    assert fresh_b.totals == cached_b.totals
    assert fresh_b.counts == cached_b.counts


def test_cache_round_trip_preserves_metadata(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    result = run_escat("A", problem, seed=SEED)
    key = cache.run_key(kind="t", version="A", problem=problem, seed=SEED)
    cache.store(key, result)
    loaded = cache.load(key)
    assert loaded is not None
    assert loaded.application == result.application
    assert loaded.version == result.version
    assert loaded.n_nodes == result.n_nodes
    assert loaded.wall_time == result.wall_time
    assert len(loaded.trace) == len(result.trace)


def test_cache_lru_eviction(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    result = run_escat("A", problem, seed=SEED)
    keys = [
        cache.run_key(kind="evict", n=i, problem=problem) for i in range(3)
    ]
    for i, key in enumerate(keys):
        cache.store(key, result)
        # Force distinct, ordered recency stamps (filesystem mtime
        # granularity would otherwise tie them).
        _, meta_path = cache._paths(key)
        os.utime(meta_path, (1000 + i, 1000 + i))
    per_entry = sum(
        p.stat().st_size for key in keys for p in tmp_path.rglob(f"{key}.*")
    ) // 3

    # Cap to roughly two entries: only the least recently used goes.
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(2 * per_entry + 16))
    assert cache.evict() == 1
    assert cache.load(keys[0]) is None
    assert cache.load(keys[1]) is not None
    assert cache.load(keys[2]) is not None

    # keep_key survives even an impossible cap.
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1")
    cache.evict(keep_key=keys[2])
    assert cache.load(keys[1]) is None
    assert cache.load(keys[2]) is not None

    # <= 0 disables the cap entirely.
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
    assert cache.evict() == 0
    assert cache.load(keys[2]) is not None


def test_corrupt_cache_entries_miss_and_quarantine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    result = run_escat("A", problem, seed=SEED)

    # Truncated trace: miss, and all three files are quarantined.
    key = cache.run_key(kind="q-trunc", problem=problem)
    cache.store(key, result)
    trace_path, meta_path = cache._paths(key)
    columns_path = cache._columns_path(trace_path)
    assert columns_path.exists()
    trace_path.write_text(trace_path.read_text()[: 64])
    assert cache.load(key) is None
    assert not trace_path.exists() and not meta_path.exists()
    assert not columns_path.exists()
    # ... so a subsequent fetch_or_run repopulates a clean entry.
    again = cache.fetch_or_run(key, lambda: result)
    assert again is result
    assert cache.load(key) is not None

    # Garbage sidecar: same contract.
    key = cache.run_key(kind="q-meta", problem=problem)
    cache.store(key, result)
    trace_path, meta_path = cache._paths(key)
    meta_path.write_text("{not json")
    assert cache.load(key) is None
    assert not trace_path.exists() and not meta_path.exists()

    # Orphaned trace with no sidecar (torn write): quarantined too.
    key = cache.run_key(kind="q-orphan", problem=problem)
    cache.store(key, result)
    trace_path, meta_path = cache._paths(key)
    meta_path.unlink()
    assert cache.load(key) is None
    assert not trace_path.exists()


#: Bytes per item of each stored column, in file order.
_ITEMSIZE = dict(zip(COLUMNS, (8, 1, 4, 8, 8, 8, 8, 4, 4)))


def _flip_start_byte(columns_path):
    """Flip the last byte of the column file's ``start`` column."""
    with open(columns_path, "r+b") as stream:
        _magic, _crc, header_len = struct.unpack("<8sII", stream.read(16))
        records = json.loads(stream.read(header_len))["records"]
        at = 16 + header_len
        for name in COLUMNS[:COLUMNS.index("start")]:
            at += -(-records * _ITEMSIZE[name] // 8) * 8
        at += records * _ITEMSIZE["start"] - 1
        stream.seek(at)
        flipped = stream.read(1)[0] ^ 0xFF
        stream.seek(at)
        stream.write(bytes([flipped]))


def _write_defective(columns_path, trace, digest, codes=None, table=None):
    """Write ``trace`` as the column file with its ``phase`` codes or
    table replaced.  ``Trace.from_columns`` passes codes and tables
    through unchecked, and ``write_columns`` computes a valid CRC, so
    only the check under test rejects the file."""
    columns = [trace.codes(name) if name in STRING_COLUMNS
               else trace.column(name) for name in COLUMNS]
    tables = {name: trace.table(name) for name in STRING_COLUMNS}
    if codes is not None:
        columns[COLUMNS.index("phase")] = codes
    if table is not None:
        tables["phase"] = table
    defective = Trace.from_columns(*columns, meta=trace.meta, sort=False,
                                   validate=False, tables=tables)
    write_columns(defective, columns_path, digest)


def _negative_phase_code(columns_path, trace, digest):
    """Rewrite the column file with its first ``phase`` code at -1."""
    codes = trace.codes("phase").copy()
    codes[0] = -1
    _write_defective(columns_path, trace, digest, codes=codes)


def _edit_phase_table(columns_path, trace, digest, edit):
    """Rewrite the column file with ``edit`` applied to its ``phase``
    table (the codes stay as they are)."""
    _write_defective(columns_path, trace, digest,
                     table=edit(trace.table("phase")))


def _raise(*args, **kwargs):
    raise AssertionError("called")


def _sddf_bytes(trace):
    out = io.StringIO()
    write_sddf(trace, out)
    return out.getvalue().encode()


@pytest.mark.parametrize(
    "defect", ["missing", "flipped-byte", "other-entry", "negative-code",
               "unsorted-table", "duplicate-table-entry", "truncated",
               "trailing-byte", "zip-file"]
)
def test_column_file_defects_fall_back_to_sddf(tmp_path, monkeypatch, defect):
    # The column file is derived from the SDDF file: when it is
    # missing or rejected, load parses the SDDF and returns its trace,
    # then re-derives the column file from it.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    key = cache.run_key(kind=f"cols-{defect}", problem=problem)
    result = run_escat("A", problem, seed=SEED)
    cache.store(key, result)
    trace_path, meta_path = cache._paths(key)
    columns_path = cache._columns_path(trace_path)
    digest = json.loads(meta_path.read_text())["sddf_sha256"]
    if defect == "missing":
        columns_path.unlink()
    elif defect == "flipped-byte":
        _flip_start_byte(columns_path)
    elif defect == "other-entry":
        # Same event count, other bytes: only the SDDF digest the
        # column file names tells the two apart.
        other = cache.run_key(kind="cols-other", problem=problem)
        cache.store(other, run_escat("A", problem, seed=SEED + 1))
        other_trace, _ = cache._paths(other)
        shutil.copyfile(cache._columns_path(other_trace), columns_path)
    elif defect == "negative-code":
        _negative_phase_code(columns_path, result.trace, digest)
    elif defect == "unsorted-table":
        _edit_phase_table(columns_path, result.trace, digest,
                          lambda table: table[::-1])
    elif defect == "duplicate-table-entry":
        # The codes never reach the duplicate: only the check on the
        # table itself rejects it.
        _edit_phase_table(columns_path, result.trace, digest,
                          lambda table: table + table[-1:])
    elif defect == "truncated":
        os.truncate(columns_path, columns_path.stat().st_size - 1)
    elif defect == "trailing-byte":
        with open(columns_path, "ab") as stream:
            stream.write(b"\0")
    else:
        # A version-2 archive under the version-3 name.
        with open(columns_path, "wb") as stream:
            np.savez(stream, start=result.trace.column("start"))
    if defect != "missing":
        with pytest.raises(TraceError):
            read_columns(columns_path, digest)
    loaded = cache.load(key)
    assert loaded is not None
    assert _sddf_bytes(loaded.trace) == trace_path.read_bytes()
    # The load re-derived the column file, so the next load reads it
    # and parses no SDDF.
    rederived = read_columns(columns_path, digest)
    assert len(rederived) == len(loaded.trace)
    monkeypatch.setattr(cache, "read_sddf", _raise)
    again = cache.load(key)
    assert again is not None
    assert _sddf_bytes(again.trace) == trace_path.read_bytes()


def test_npz_column_file_is_replaced_on_first_load(tmp_path, monkeypatch):
    # An entry from before the flat column file has <key>.cols.npz and
    # no <key>.cols: its first load parses the SDDF, writes <key>.cols
    # and unlinks the archive, without a re-simulation.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    key = cache.run_key(kind="cols-npz", problem=problem)
    cache.store(key, run_escat("A", problem, seed=SEED))
    trace_path, meta_path = cache._paths(key)
    columns_path = cache._columns_path(trace_path)
    npz_path = trace_path.with_suffix(".cols.npz")
    columns_path.unlink()
    npz_path.write_bytes(b"PK\x03\x04 an old archive")
    assert npz_path in cache._entry_files(meta_path)
    digest = json.loads(meta_path.read_text())["sddf_sha256"]
    loaded = cache.load(key)
    assert loaded is not None
    assert len(read_columns(columns_path, digest)) == len(loaded.trace)
    assert not npz_path.exists()
    monkeypatch.setattr(cache, "read_sddf", _raise)
    again = cache.load(key)
    assert again is not None
    assert _sddf_bytes(again.trace) == trace_path.read_bytes()


def test_loaded_columns_are_private_views_of_the_column_file(
    tmp_path, monkeypatch
):
    # A load maps the column file copy-on-write: the trace outlives the
    # entry's files, and a write into a column never reaches the file.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setattr(cache, "read_sddf", _raise)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    key = cache.run_key(kind="cols-mapped", problem=problem)
    result = run_escat("A", problem, seed=SEED)
    cache.store(key, result)
    trace_path, meta_path = cache._paths(key)
    columns_path = cache._columns_path(trace_path)
    stored = trace_path.read_bytes()
    digest = json.loads(meta_path.read_text())["sddf_sha256"]

    loaded = cache.load(key)
    assert loaded is not None
    cache.clear()
    assert not any(path.exists() for path in cache._entry_files(meta_path))
    assert _sddf_bytes(loaded.trace) == stored

    cache.store(key, result)
    loaded = cache.load(key)
    assert loaded is not None
    start = loaded.trace.column("start")
    start[0] = start[0] + 1.0
    assert len(read_columns(columns_path, digest)) == len(result.trace)
    fresh = cache.load(key)
    assert fresh is not None
    assert _sddf_bytes(fresh.trace) == stored


def test_fallback_quarantines_sddf_bytes_the_sidecar_does_not_name(
    tmp_path, monkeypatch
):
    # Without a column file, the SDDF bytes must match the sidecar's
    # SHA-256 before they are parsed: a changed digit still parses (to
    # a trace with the sidecar's event count), so only the digest
    # catches it.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    key = cache.run_key(kind="sddf-digit", problem=problem)
    cache.store(key, run_escat("A", problem, seed=SEED))
    trace_path, meta_path = cache._paths(key)
    columns_path = cache._columns_path(trace_path)
    columns_path.unlink()
    data = bytearray(trace_path.read_bytes())
    # The first record's node id: one digit, same length.
    at = data.index(b"#data\n") + len(b"#data\n")
    assert chr(data[at]).isdigit()
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    trace_path.write_bytes(bytes(data))
    before = cache.session_stats()
    assert cache.load(key) is None
    after = cache.session_stats()
    assert after["misses"] - before["misses"] == 1
    assert after["quarantined"] - before["quarantined"] == 1
    assert not trace_path.exists() and not meta_path.exists()
    assert not columns_path.exists()


def test_run_until_leaves_no_stopper_behind():
    # Regression: run(until=<time>) used to leave its internal stopper
    # event queued when the run ended early via StopSimulation raised
    # by another event, polluting peek().
    eng = Engine()

    def proc(eng):
        yield eng.timeout(1.0)

    eng.process(proc(eng))
    eng.run(until=100.0)  # queue drains long before t=100
    assert eng.peek() == float("inf")
