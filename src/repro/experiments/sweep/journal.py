"""The sweep journal: append-only JSONL, the engine's crash ledger.

Following the checkpoint-logging resilience pattern (log progress
durably, so a crash costs only the in-flight work), the driver appends
one JSON record per state transition and ``fsync``\\ s each append.  A
SIGKILLed driver therefore leaves a journal whose only possible defect
is a torn *final* line — which the reader tolerates by skipping any
line that fails to parse.

Record types (``"event"`` field)::

    sweep        header: embedded grid spec, grid hash, point count
    done         point completed (summary metrics, run key, dedup flag)
    retry        point failed an attempt and was requeued
    timeout      point hit the per-point wall-clock guard on an attempt
    quarantined  point exhausted its retry budget (error + traceback)
    finished     the sweep reached a terminal state (counts)

The resume contract: ``done`` and ``quarantined`` are *terminal* — a
resumed driver re-expands the embedded spec, replays the journal, and
never re-simulates a point with a terminal record.  ``retry`` /
``timeout`` records are evidence, not state: a point whose last record
is a retry simply runs again from scratch (attempt counters restart —
the budget bounds attempts per driver session, and a resumed session
deserves a fresh budget).

Aggregates derive *only* from journal records (never from live worker
state), which is why an interrupted-then-resumed sweep renders a
bit-identical aggregate to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Type

from repro.errors import SweepError

#: Journal format version (header field).
JOURNAL_VERSION = 1


class JournalWriter:
    """Durable append-only writer.  One instance per driver session."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream = open(self.path, "a")

    def append(self, record: Dict) -> None:
        """Write one record durably (flush + fsync before returning)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._stream.write(line + "\n")
        self._stream.flush()
        try:
            os.fsync(self._stream.fileno())
        except OSError:  # pragma: no cover - e.g. journal on a pipe
            pass

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalState:
    """Everything a replay of one journal file establishes."""

    path: str
    grid_spec: Optional[Dict] = None
    grid_hash: str = ""
    n_points: int = 0
    #: point_id -> terminal ``done`` record.
    done: Dict[str, Dict] = field(default_factory=dict)
    #: point_id -> terminal ``quarantined`` record.
    quarantined: Dict[str, Dict] = field(default_factory=dict)
    #: Non-terminal evidence records, in order (retry/timeout).
    attempts: List[Dict] = field(default_factory=list)
    finished: bool = False
    finished_counts: Optional[Dict] = None
    #: Lines that failed to parse (at most the torn final line of a
    #: killed driver; more than one means real corruption).
    torn_lines: int = 0

    @property
    def terminal_ids(self) -> set:
        return set(self.done) | set(self.quarantined)

    @property
    def pending_count(self) -> int:
        return self.n_points - len(self.terminal_ids)


def parse_records(
    text: str, name: str, error: Type[Exception]
) -> Tuple[List[Dict], int]:
    """Parse JSONL journal ``text`` into ``(records, torn_lines)``.

    Every non-blank line must be a JSON object with an ``"event"``
    field.  A line that is not is tolerated only at the very end — the
    torn final append of a killed writer — and counted; anywhere else
    it is real corruption, raised as ``error`` (each journal keeps its
    own error type) naming the journal ``name`` and the line.
    """
    lines = text.splitlines()
    records: List[Dict] = []
    torn = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "event" not in record:
                raise ValueError("not a journal record")
        except ValueError:
            if lineno != len(lines):
                raise error(
                    f"{name} is corrupt at line {lineno} "
                    "(torn records are only tolerated at the end)"
                ) from None
            torn += 1
            continue
        records.append(record)
    return records, torn


def read_journal(path) -> JournalState:
    """Replay ``path`` into a :class:`JournalState`.

    Tolerates a torn final line (the signature of a killed driver);
    raises :class:`SweepError` for a missing file, a missing header,
    or torn lines *before* the end (real corruption — resuming over it
    could silently lose state).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SweepError(f"cannot read sweep journal {path}: {exc}")
    state = JournalState(path=str(path))
    parsed, state.torn_lines = parse_records(
        text, f"sweep journal {path}", SweepError
    )
    for record in parsed:
        event = record["event"]
        if event == "sweep":
            if state.grid_spec is not None:
                raise SweepError(
                    f"sweep journal {path} has two headers"
                )
            state.grid_spec = record.get("grid")
            state.grid_hash = record.get("grid_hash", "")
            state.n_points = int(record.get("n_points", 0))
        elif event == "done":
            state.done[record["point"]] = record
            state.quarantined.pop(record["point"], None)
        elif event == "quarantined":
            if record["point"] not in state.done:
                state.quarantined[record["point"]] = record
        elif event in ("retry", "timeout"):
            state.attempts.append(record)
        elif event == "finished":
            state.finished = True
            state.finished_counts = record.get("counts")
        # Unknown events are skipped: newer writers stay readable.
    if state.grid_spec is None:
        raise SweepError(
            f"sweep journal {path} has no header record "
            "(is it a journal at all?)"
        )
    return state


def header_record(grid, n_points: int) -> Dict:
    return {
        "event": "sweep",
        "journal_version": JOURNAL_VERSION,
        "grid": grid.to_dict(),
        "grid_hash": grid.grid_hash,
        "n_points": n_points,
    }
