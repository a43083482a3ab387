"""Determinism regressions for the simulation core.

The columnar tracer and the on-disk run cache must be invisible in the
results: the same SDDF bytes and the same table rows, however the run
executed.
"""

import hashlib
import io
import os
import shutil
import struct
import zipfile

import numpy as np
import pytest

from repro.apps import run_escat, scaled_escat_problem
from repro.core.breakdown import io_time_breakdown
from repro.experiments import cache
from repro.experiments import runner
from repro.pablo.sddf import write_sddf
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


def _flip_start_byte(columns_path):
    """Flip the last data byte of the column file's ``start`` member."""
    with zipfile.ZipFile(columns_path) as archive:
        info = archive.getinfo("start.npy")
    with open(columns_path, "r+b") as stream:
        stream.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", stream.read(4))
        at = info.header_offset + 30 + name_len + extra_len + info.file_size - 1
        stream.seek(at)
        flipped = stream.read(1)[0] ^ 0xFF
        stream.seek(at)
        stream.write(bytes([flipped]))


def _negative_phase_code(columns_path):
    """Rewrite the column file with its first ``phase`` code at -1."""
    with np.load(columns_path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    members["phase"] = members["phase"].copy()
    members["phase"][0] = -1
    np.savez(columns_path, **members)


@pytest.mark.parametrize(
    "defect", ["missing", "flipped-byte", "other-entry", "negative-code"]
)
def test_column_file_defects_fall_back_to_sddf(tmp_path, monkeypatch, defect):
    # The column file is derived from the SDDF file: when it is
    # missing or rejected, load parses the SDDF and returns its trace.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    problem = scaled_escat_problem(n_nodes=16, records_per_channel=32)
    key = cache.run_key(kind=f"cols-{defect}", problem=problem)
    cache.store(key, run_escat("A", problem, seed=SEED))
    trace_path, _ = cache._paths(key)
    columns_path = cache._columns_path(trace_path)
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
    else:
        _negative_phase_code(columns_path)
    loaded = cache.load(key)
    assert loaded is not None
    out = io.StringIO()
    write_sddf(loaded.trace, out)
    assert out.getvalue().encode() == trace_path.read_bytes()


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
