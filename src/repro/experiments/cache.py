"""Content-addressed on-disk cache for simulated application runs.

Every experiment, table, and figure derives from a handful of
deterministic simulations; re-running ``repro validate`` or the bench
suite repeats them from scratch.  This module persists each completed
:class:`~repro.apps.base.AppRunResult` as an SDDF trace, a binary
column file and a JSON sidecar under ``~/.cache/repro/`` keyed by a
SHA-256 fingerprint of everything the run depends on: application
kind, version (and the full version-object fields for progression
builds), problem dataset, machine and cost-model calibration, seed,
scale, and a cache epoch.

Determinism makes this sound: a cache hit yields the *byte-identical*
SDDF trace a fresh run would produce (the SDDF float fields are
``repr``-round-tripped), so cached and fresh experiment outputs match
exactly — asserted by the regression tests.

Layout::

    ~/.cache/repro/<key[:2]>/<key>.sddf   # the trace (interchange)
    ~/.cache/repro/<key[:2]>/<key>.cols   # its columns, binary
    ~/.cache/repro/<key[:2]>/<key>.json   # run metadata (commit marker)

:func:`store` writes them in that order, each atomically (temp file +
``os.replace``), so a torn write can never produce a loadable entry.
The sidecar records the SDDF file's byte length and SHA-256; the
column file (:mod:`repro.pablo.colfile`) names the SHA-256 of the SDDF
it was derived from.  :func:`load` checks the SDDF length against the
sidecar, then builds the trace from the column file when its CRC-32,
version, SHA-256 (the sidecar's) and length are right, its string
tables are sorted and its codes index them.  Otherwise it falls back
to the SDDF, the source of truth, but parses only bytes that match
the sidecar's SHA-256, and then re-derives the column file from the
parsed trace, so the next load reads columns again.  (An entry whose
column file has an older format is upgraded this way on its first
load, without a re-simulation.  Column-file versions 1 and 2 were
``.npz`` archives named ``<key>.cols.npz``.  Every load unlinks such a
leftover, so an entry counts its columns once against the size cap;
an older checkout sharing the cache then re-derives its ``.npz`` on
each of its own loads.  Until a load, quarantine, eviction and the
footprint count the leftover as one of the entry's files.)  When the
bytes do not match or do not parse, it quarantines the entry.  Either
trace must have the sidecar's event count.  :func:`stored_sddf`, which
serves ``GET /v1/runs/<id>/result``, and :func:`stored_entry`, which
``repro trace`` copies from, return the SDDF bytes as stored after
checking their length and SHA-256.

A loaded trace's columns are copy-on-write views of the mapped column
file (see :mod:`repro.pablo.colfile`): a write into one never reaches
the file.  No writer here changes a file in place: :func:`store` and
the re-derivation replace files with ``os.replace``, and quarantine,
eviction and :func:`clear` unlink them, so the bytes under a loaded
trace never change.  An unlinked file's disk space is freed when the
last trace mapping it goes.

Hit, miss, store, eviction and quarantine counts go to ``STATS.json``
at the cache root, which :func:`_bump` updates in place under an
exclusive ``flock``, so concurrent processes lose no increment.

The cache is size-capped: after every store, least-recently-used
entries are evicted until the total footprint of the entries' files
fits under ``REPRO_CACHE_MAX_BYTES`` (default 2 GiB; ``0`` or
negative disables the cap).  Recency is the sidecar mtime, refreshed
on every hit; eviction removes the sidecar first, so an interrupted
eviction leaves at worst orphaned trace files that can never load as
a stale entry.  Environment knobs: ``REPRO_CACHE=0`` disables the cache
entirely; ``REPRO_CACHE_DIR`` relocates it.

``CACHE_EPOCH`` is 2 since entries gained the column file and the
sidecar's SDDF length and SHA-256.  Entries written before have
neither; the bump makes them unreachable, so no reader keeps an
old-format branch, and LRU eviction removes them over time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Tuple

from repro import flags
from repro.apps.base import AppRunResult
from repro.pablo.colfile import read_columns, write_columns
from repro.pablo.sddf import read_sddf, write_sddf
from repro.pablo.tracer import Trace

try:
    import fcntl
except ImportError:  # non-POSIX: STATS.json is updated unlocked
    fcntl = None  # type: ignore[assignment]

#: Bump this whenever simulator behaviour changes in a way the key
#: fields cannot see (e.g. a PFS scheduling fix), or the entry layout
#: changes so that a load cannot upgrade an old entry from its SDDF
#: file: it invalidates every previously cached run at once.  2:
#: entries gained the column file and the sidecar's ``sddf_bytes`` and
#: ``sddf_sha256``, which epoch-1 entries lack.
CACHE_EPOCH = 2


#: Default size cap for the on-disk run cache (2 GiB).
DEFAULT_CACHE_MAX_BYTES = 2 * 1024**3

#: Name of the statistics sidecar at the cache root.  It is *not* an
#: entry: the eviction and stats scans skip it by name.
STATS_NAME = "STATS.json"

#: Sidecar fields every reader relies on.
_RECORD_KEYS = ("events", "sddf_bytes", "sddf_sha256")

#: Counter keys tracked both in-process and in the sidecar.
_STAT_KEYS = ("hits", "misses", "stores", "evictions", "quarantined")

#: In-process (this session) counters, mirrored into the sidecar.
_SESSION = {key: 0 for key in _STAT_KEYS}


def session_stats() -> dict:
    """Run-cache activity counters for this process."""
    return dict(_SESSION)


def _stats_path() -> Path:
    return cache_dir() / STATS_NAME


def _bump(**deltas: int) -> None:
    """Add ``deltas`` to the session counters and the persistent
    sidecar.

    The sidecar is updated in place under an exclusive ``flock``: read,
    add, write from offset 0, truncate to the new length.  Concurrent
    processes therefore lose no increment (where ``fcntl`` is missing
    the same update runs unlocked).  A crash in the middle of the write
    can leave a file that reads as zeros; any ``OSError`` is ignored,
    so the counters never break a cache operation."""
    for key, delta in deltas.items():
        _SESSION[key] += delta
    if not cache_enabled():
        return
    path = _stats_path()
    try:
        try:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            totals = _read_totals(fd)
            for key, delta in deltas.items():
                totals[key] += delta
            data = json.dumps(totals).encode()
            # lseek + write, not pwrite, which non-POSIX platforms lack.
            os.lseek(fd, 0, os.SEEK_SET)
            os.write(fd, data)
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)  # releases the lock
    except OSError:
        pass


def _read_totals(fd: int) -> dict:
    """The counters in the open sidecar ``fd``: zero for a key that is
    missing or not an ``int``, and for every key if the file is not a
    JSON object."""
    data = b""
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        data += chunk
    try:
        totals = json.loads(data)
    except ValueError:
        totals = None
    if not isinstance(totals, dict):
        totals = {}
    return {
        key: totals[key] if isinstance(totals.get(key), int) else 0
        for key in _STAT_KEYS
    }


def persistent_stats() -> dict:
    """Since-creation counters from the sidecar (zeros if absent),
    read under a shared ``flock`` so a concurrent :func:`_bump` is
    never seen half-written."""
    try:
        fd = os.open(_stats_path(), os.O_RDONLY)
    except OSError:
        return {key: 0 for key in _STAT_KEYS}
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_SH)
        return _read_totals(fd)
    except OSError:
        return {key: 0 for key in _STAT_KEYS}
    finally:
        os.close(fd)


def stats() -> dict:
    """Everything ``repro cache stats`` prints: current entry count
    and footprint, plus the since-creation sidecar counters and the
    this-process session counters."""
    root = cache_dir()
    entries = 0
    total_bytes = 0
    if root.exists():
        for meta_path in root.rglob("*.json"):
            if meta_path.name == STATS_NAME:
                continue
            try:
                size = _entry_size(meta_path)
            except OSError:
                continue
            entries += 1
            total_bytes += size
    return {
        "dir": str(root),
        "enabled": cache_enabled(),
        "entries": entries,
        "bytes": total_bytes,
        "max_bytes": cache_max_bytes(),
        "since_creation": persistent_stats(),
        "session": session_stats(),
    }


def cache_enabled() -> bool:
    return flags.cache_enabled()


def cache_max_bytes() -> int:
    """The cache size cap in bytes; ``<= 0`` means uncapped."""
    return flags.cache_max_bytes(DEFAULT_CACHE_MAX_BYTES)


def cache_dir() -> Path:
    override = flags.cache_dir()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _fingerprint(value: object) -> object:
    """A JSON-able, deterministic digest structure for key material."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                field.name: _fingerprint(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): _fingerprint(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_fingerprint(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def run_key(**parts: object) -> str:
    """The content hash for a run described by ``parts``.

    The default machine and PFS cost calibration are always folded in,
    so recalibrating the simulator invalidates old entries without a
    manual epoch bump.
    """
    from repro.machine import MachineConfig
    from repro.pfs.costs import PFSCostModel

    payload = {
        "epoch": CACHE_EPOCH,
        "machine": _fingerprint(MachineConfig.caltech()),
        "costs": _fingerprint(PFSCostModel()),
    }
    for name, value in parts.items():
        payload[name] = _fingerprint(value)
    digest = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(digest.encode("utf-8")).hexdigest()


def _paths(key: str) -> tuple:
    base = cache_dir() / key[:2]
    return base / f"{key}.sddf", base / f"{key}.json"


def _columns_path(path: Path) -> Path:
    """The column file of the entry that ``path`` (its SDDF file or
    sidecar) belongs to."""
    return path.with_suffix(".cols")


def _npz_columns_path(path: Path) -> Path:
    """Where column-file versions 1 and 2 lived (``.npz`` archives)."""
    return path.with_suffix(".cols.npz")


def _entry_files(meta_path: Path) -> tuple:
    """An entry's files, sidecar first (the order eviction unlinks),
    including an old ``.cols.npz`` that the entry's next load
    unlinks."""
    trace_path = meta_path.with_suffix(".sddf")
    return (meta_path, trace_path, _columns_path(trace_path),
            _npz_columns_path(trace_path))


def _entry_size(meta_path: Path) -> int:
    """Bytes of an entry's files; raises ``OSError`` without a sidecar."""
    size = meta_path.stat().st_size
    for path in _entry_files(meta_path)[1:]:
        try:
            size += path.stat().st_size
        except FileNotFoundError:
            pass
    return size


def _sidecar(trace_path: Path, meta_path: Path) -> dict:
    """The run record of an entry whose SDDF file has the recorded
    length.

    Raises ``OSError`` when a file is missing or unreadable and
    ``ValueError`` when the sidecar is not a run record of this layout
    or the SDDF file's length differs from it.  A truncated trace can
    still parse as a shorter (even empty) valid SDDF stream; the length
    catches it without reading the file.
    """
    meta = json.loads(meta_path.read_text())
    if not isinstance(meta, dict) or any(k not in meta for k in _RECORD_KEYS):
        raise ValueError("sidecar is not a run record")
    size = trace_path.stat().st_size
    if size != meta["sddf_bytes"]:
        raise ValueError(
            f"trace has {size} bytes, sidecar says {meta['sddf_bytes']}"
        )
    return meta


def _verified_sddf(trace_path: Path, meta: dict) -> bytes:
    """The entry's SDDF bytes; raises ``ValueError`` unless they match
    the sidecar's SHA-256."""
    data = trace_path.read_bytes()
    if hashlib.sha256(data).hexdigest() != meta["sddf_sha256"]:
        raise ValueError("trace bytes differ from the sidecar's digest")
    return data


def _hit(meta_path: Path) -> None:
    """Count a hit and refresh the entry's LRU recency."""
    try:
        os.utime(meta_path)
    except OSError:
        pass
    _bump(hits=1)


def _miss(meta_path: Path) -> None:
    """Count a miss, quarantining whatever files of the entry exist: a
    defective entry, or the orphans a torn write left behind."""
    if any(path.exists() for path in _entry_files(meta_path)):
        _quarantine(meta_path)
        _bump(misses=1, quarantined=1)
    else:
        _bump(misses=1)


def load(key: str) -> Optional[AppRunResult]:
    """The cached run for ``key``, or ``None`` on any miss/corruption.

    Any defect — truncated trace, unparsable sidecar, missing sidecar
    next to orphaned trace files — is treated as a miss, and the broken
    entry is *quarantined* (its files unlinked) so the fresh run that
    follows can overwrite it cleanly and the defect cannot recur.  A
    missing or rejected column file is not a defect: the trace is then
    parsed from the SDDF file, whose bytes must match the sidecar's
    SHA-256, and the column file is re-derived.
    """
    if not cache_enabled():
        return None
    trace_path, meta_path = _paths(key)
    try:
        meta = _sidecar(trace_path, meta_path)
        trace = _read_trace(trace_path, meta)
    except Exception:
        # Corrupt or truncated entry (whatever the failure mode — a
        # cache defect must never crash an experiment run): miss.
        _miss(meta_path)
        return None
    _hit(meta_path)
    return AppRunResult(
        application=meta["application"],
        version=meta["version"],
        dataset=meta["dataset"],
        n_nodes=meta["n_nodes"],
        trace=trace,
        wall_time=meta["wall_time"],
        fault_summary=meta.get("fault_summary"),
    )


def _read_trace(trace_path: Path, meta: dict) -> Trace:
    """The entry's trace, from its column file when that file matches
    the sidecar.

    Otherwise (missing, corrupt or stale: the column file is derived
    from the SDDF file, which stays the source of truth) the SDDF bytes
    must match the sidecar's SHA-256; the trace is parsed from those
    bytes and the column file re-derived from it, so the next load
    reads columns again.  Either way a leftover ``.cols.npz`` is
    unlinked.  Raises ``ValueError`` for bytes that do not match, or a
    trace without the sidecar's event count.
    """
    columns_path = _columns_path(trace_path)
    try:
        trace = read_columns(columns_path, meta["sddf_sha256"])
        rederive = False
    except Exception:
        data = _verified_sddf(trace_path, meta)
        # newline="\n", as read_sddf opens a path.
        trace = read_sddf(io.TextIOWrapper(io.BytesIO(data), newline="\n"))
        rederive = True
    if len(trace) != meta["events"]:
        raise ValueError(
            f"trace has {len(trace)} events, sidecar says {meta['events']}"
        )
    try:
        if rederive:
            _atomic_write(
                columns_path,
                lambda f: write_columns(trace, f, meta["sddf_sha256"]),
                binary=True,
            )
        _npz_columns_path(trace_path).unlink(missing_ok=True)
    except OSError:
        pass
    return trace


def peek(key: str) -> Optional[dict]:
    """The sidecar metadata for ``key`` without reading the trace.

    This is the serve layer's hot path: answering a repeat query needs
    only the run summary (the trace stays on disk until a result body
    is actually requested), so a hit costs one small JSON read instead
    of a trace load.  Counts as a cache lookup (hit/miss) and refreshes
    LRU recency like :func:`load`; unlike :func:`load` it never
    quarantines — a suspect entry is simply reported as a miss and
    left for the next full load to judge.
    """
    if not cache_enabled():
        return None
    trace_path, meta_path = _paths(key)
    try:
        meta = _sidecar(trace_path, meta_path)
    except (OSError, ValueError):
        _bump(misses=1)
        return None
    _hit(meta_path)
    return meta


def stored_sddf(key: str) -> Optional[bytes]:
    """The SDDF bytes stored for ``key``, exactly as written, or
    ``None`` on a miss (see :func:`stored_entry`)."""
    entry = stored_entry(key)
    return None if entry is None else entry[1]


def stored_entry(key: str) -> Optional[Tuple[dict, bytes]]:
    """The sidecar and the SDDF bytes stored for ``key``, the bytes
    exactly as written, or ``None`` on a miss.

    The bytes must have the sidecar's length and SHA-256; an entry
    whose bytes do not is quarantined like a defect :func:`load`
    finds.  Counts as a lookup and refreshes LRU recency like
    :func:`load`.
    """
    if not cache_enabled():
        return None
    trace_path, meta_path = _paths(key)
    try:
        meta = _sidecar(trace_path, meta_path)
        data = _verified_sddf(trace_path, meta)
    except (OSError, ValueError):
        _miss(meta_path)
        return None
    _hit(meta_path)
    return meta, data


def _quarantine(meta_path: Path) -> None:
    """Unlink a broken entry's files; never raises."""
    for path in _entry_files(meta_path):
        try:
            path.unlink()
        except OSError:
            pass


def store(key: str, result: AppRunResult) -> None:
    """Persist ``result`` under ``key``.  Best-effort: I/O failures
    (read-only home, full disk) degrade to a cache miss next time."""
    if not cache_enabled():
        return
    trace_path, meta_path = _paths(key)
    meta = {
        "application": result.application,
        "version": result.version,
        "dataset": result.dataset,
        "n_nodes": result.n_nodes,
        "wall_time": result.wall_time,
        "io_node_seconds": float(result.io_node_seconds),
        "events": len(result.trace),
    }
    if result.fault_summary is not None:
        # Fault-injected runs (chaos cells dispatched through the sweep
        # engine) must reload with their fault counters intact.
        meta["fault_summary"] = result.fault_summary
    try:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(trace_path, lambda f: write_sddf(result.trace, f))
        meta["sddf_bytes"], meta["sddf_sha256"] = _file_digest(trace_path)
        _atomic_write(
            _columns_path(trace_path),
            lambda f: write_columns(result.trace, f, meta["sddf_sha256"]),
            binary=True,
        )
        _atomic_write(meta_path, lambda f: json.dump(meta, f))
    except OSError:
        return
    _bump(stores=1)
    evict(keep_key=key)


def _file_digest(path: Path) -> tuple:
    """``(byte length, SHA-256 hex digest)`` of the file at ``path``,
    read back in chunks so a large trace is never held twice."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
            size += len(block)
    return size, digest.hexdigest()


def evict(keep_key: str = "") -> int:
    """Remove least-recently-used entries until the cache fits under
    :func:`cache_max_bytes`.  Returns the number of entries evicted.

    ``keep_key`` (typically the entry just stored) is never evicted —
    a single over-cap run should still be cached for its next use.
    The sidecar is unlinked before the trace files, so a crash
    mid-eviction can only leave orphaned (unloadable) trace files,
    never a loadable half-entry.
    """
    cap = cache_max_bytes()
    if cap <= 0:
        return 0
    root = cache_dir()
    if not root.exists():
        return 0
    entries = []
    total = 0
    for meta_path in root.rglob("*.json"):
        if meta_path.name == STATS_NAME:
            continue
        try:
            mtime = meta_path.stat().st_mtime
            size = _entry_size(meta_path)
        except OSError:
            continue
        total += size
        entries.append((mtime, meta_path.stem, meta_path, size))
    if total <= cap:
        return 0
    entries.sort()
    removed = 0
    for _mtime, key, meta_path, size in entries:
        if total <= cap:
            break
        if key == keep_key:
            continue
        try:
            meta_path.unlink()
        except OSError:
            continue
        for path in _entry_files(meta_path)[1:]:
            try:
                path.unlink()
            except OSError:
                pass
        total -= size
        removed += 1
    if removed:
        _bump(evictions=removed)
    return removed


def _atomic_write(path: Path, writer, binary: bool = False) -> None:
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb" if binary else "w") as stream:
            writer(stream)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def fetch_or_run(key: str, producer) -> AppRunResult:
    """Load ``key`` from disk, or call ``producer()`` and persist it."""
    result = load(key)
    if result is None:
        result = producer()
        store(key, result)
    return result


def clear() -> int:
    """Delete every cached entry; returns the number of files removed."""
    root = cache_dir()
    removed = 0
    if not root.exists():
        return 0
    for path in root.rglob("*"):
        if path.is_file() and path.suffix in (".sddf", ".cols", ".npz",
                                              ".json", ".tmp"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed
