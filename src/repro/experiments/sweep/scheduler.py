"""The sweep driver: one work queue, retries, resume.

Architecture (server/worker split): the driver owns *all* scheduling
state — the FIFO queue of pending points, the retry/backoff ledger,
run-key deduplication, the journal — and workers are stateless
executors behind private inboxes.  Driver-mediated dispatch is what
makes every failure class recoverable:

- **Worker crash / OOM-kill.**  Every dispatched point is tracked as
  in-flight against its worker; a worker that dies without answering
  (detected via ``Process.exitcode`` — the missing-sentinel case) has
  its point requeued under the per-point retry budget with exponential
  backoff, and a replacement worker is forked into the same slot.  A
  point that fails every attempt is *quarantined* with its error and
  traceback — reported, never fatal to the sweep.
- **Per-point timeout.**  Workers arm ``run_guarded``'s ``SIGALRM``
  guard around each point; the driver keeps a hard deadline (a
  multiple of the soft timeout) and SIGKILLs a worker that blows
  through it — the backstop for hangs the in-process guard cannot
  interrupt.
- **Driver death.**  Terminal state transitions are fsync'd to the
  journal *before* they take effect in memory, so SIGKILLing the
  driver loses only in-flight work; :func:`resume` re-expands the grid
  embedded in the journal header and re-simulates nothing that
  journaled complete.  (Orphaned workers notice the parent change and
  exit on their own — see :mod:`repro.experiments.sweep.worker`.)

Load balance: every idle worker takes the next point off one FIFO
queue, so a worker stuck on a slow point never holds back work another
could do.  Duplicate points (same run key) never simulate twice: the
first execution's summary completes all parked duplicates driver-side,
and repeats across sweeps deduplicate through the content-addressed
run cache.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SweepError
from repro.experiments.sweep import worker as worker_module
from repro.experiments.sweep.grid import SweepGrid, SweepPoint
from repro.experiments.sweep.journal import (
    JournalState,
    JournalWriter,
    header_record,
    read_journal,
)

#: Default per-point retry budget (attempts = retries + 1).
DEFAULT_RETRIES = 2

#: Default backoff base in real seconds (doubled per attempt).
DEFAULT_BACKOFF = 0.05

#: Result-queue poll interval (the driver's tick).
TICK_S = 0.05

#: Hard-deadline factor over the soft per-point timeout.
HARD_TIMEOUT_FACTOR = 3.0


def _now() -> float:
    # Scheduler deadlines (worker liveness, retry backoff, hangs) are
    # real wall-clock concerns that never enter simulated state; the
    # sweep's *results* stay a pure function of the grid spec.
    return time.monotonic()  # repro: allow(entropy): real-time retry/liveness deadlines only; simulation outputs never depend on this read


class SweepTelemetry:
    """Plain-int sweep progress counters, exposed through the
    :class:`repro.telemetry.MetricsRegistry` as callback gauges (the
    PR-4 zero-overhead wiring: the scheduler mutates ints, telemetry
    reads them at collection time)."""

    FIELDS = (
        "points_total", "points_done", "points_quarantined",
        "cache_hits", "dedup_hits", "retries", "timeouts",
        "worker_crashes", "workers_spawned",
    )

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def as_registry(self):
        """A live registry view (``sweep_*`` gauge per counter)."""
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        for name in self.FIELDS:
            registry.gauge_fn(
                f"sweep_{name}",
                (lambda n=name: float(getattr(self, n))),
                help=f"sweep scheduler counter: {name}",
            )
        return registry


@dataclass
class PointRecord:
    """Driver-side lifecycle state for one point."""

    point: SweepPoint
    run_key: Optional[str]
    status: str = "pending"  # pending|parked|inflight|done|quarantined
    attempts: int = 0
    dedup: bool = False
    summary: Optional[Dict] = None
    error: Optional[str] = None
    traceback: Optional[str] = None


@dataclass
class SweepOutcome:
    """What a driver session established (including prior-session
    state replayed from the journal, for resumed sweeps)."""

    points: List[SweepPoint]
    done: Dict[str, Dict] = field(default_factory=dict)
    quarantined: Dict[str, Dict] = field(default_factory=dict)
    #: Points actually *simulated by this session's workers* (excludes
    #: journal-replayed completions and driver-side dedup copies) —
    #: the resume-after-kill tests assert this is disjoint from the
    #: journal's completed set.
    executed: Set[str] = field(default_factory=set)
    telemetry: Dict[str, int] = field(default_factory=dict)
    journal_path: Optional[str] = None

    @property
    def counts(self) -> Dict[str, int]:
        return {
            "total": len(self.points),
            "completed": len(self.done),
            "quarantined": len(self.quarantined),
            "pending": (
                len(self.points) - len(self.done) - len(self.quarantined)
            ),
        }

    @property
    def complete(self) -> bool:
        return self.counts["pending"] == 0

    def record_for(self, tag: str) -> Optional[Dict]:
        """The terminal record of the (unique) point tagged ``tag``."""
        for point in self.points:
            if point.tag == tag:
                pid = point.point_id
                if pid in self.done:
                    return dict(self.done[pid], status="done")
                if pid in self.quarantined:
                    return dict(self.quarantined[pid],
                                status="quarantined")
                return None
        return None


class _WorkerSlot:
    """One worker process slot (respawned in place after a crash)."""

    def __init__(self, ctx, slot_id: int, results, target=None,
                 name: str = "sweep") -> None:
        self.slot_id = slot_id
        self.ctx = ctx
        self.results = results
        self.target = (
            target if target is not None else worker_module.worker_main
        )
        self.name = name
        self.inbox = ctx.Queue()
        self.proc = None
        self.inflight: Optional[str] = None
        self.deadline: Optional[float] = None

    def spawn(self) -> None:
        self.proc = self.ctx.Process(
            target=self.target,
            args=(self.slot_id, self.inbox, self.results),
            daemon=True,
            name=f"{self.name}-worker-{self.slot_id}",
        )
        self.proc.start()

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def respawn(self) -> None:
        # A fresh inbox: the dead process may have consumed or left
        # messages in the old one in an unknowable state.
        self.inbox = self.ctx.Queue()
        self.inflight = None
        self.deadline = None
        self.spawn()

    def kill(self) -> None:
        if self.proc is not None and self.proc.is_alive():
            self.proc.kill()

    def shutdown(self) -> None:
        try:
            self.inbox.put(None)
        except (OSError, ValueError):  # pragma: no cover
            pass


#: One pool outcome: ``(kind, slot_id, point_id, payload)``.
Outcome = Tuple[str, int, Optional[str], Any]


def outcome_error(kind: str, payload: Any, timeout: Optional[float],
                  unit: str) -> Tuple[str, Optional[str], bool]:
    """``(error, traceback, timed_out)`` for a failed pool outcome;
    ``unit`` names what a worker executes ("point", "job") in the
    crash message."""
    if kind == "failed":
        return (payload.get("error", "unknown failure"),
                payload.get("traceback"), False)
    if kind == "timeout":
        return f"timed out after {timeout}s", None, True
    if kind == "crashed":
        return (f"worker process died mid-{unit} (exit code {payload})",
                None, False)
    return (f"hard timeout: worker unresponsive past {timeout}s guard",
            None, True)


class WorkerPool:
    """A crash-tolerant pool of worker-process slots behind private
    inboxes — the dispatch substrate shared by the sweep driver and
    the serve layer's job manager.

    The pool owns the mechanics of a driver loop: dispatch
    (:meth:`send`), collecting reports, in-place respawn after a
    crash and hard-deadline kills (:meth:`poll`), and graceful
    shutdown.  All scheduling policy — what to dispatch, retry
    budgets, quarantine, what each outcome means — stays with the
    caller, which keeps the pool reusable across very different
    drivers (a batch sweep that terminates, a long-running service
    that never does).

    ``target`` is the worker entrypoint, called as ``target(slot_id,
    inbox, results)`` in a forked process; it defaults to the sweep
    worker's :func:`~repro.experiments.sweep.worker.worker_main`.
    """

    def __init__(self, size: int, target=None, name: str = "sweep") -> None:
        if int(size) < 1:
            raise SweepError(f"worker pool needs >= 1 slot: {size}")
        ctx = multiprocessing.get_context()
        self.results = ctx.Queue()
        self.slots = [
            _WorkerSlot(ctx, slot_id, self.results, target=target,
                        name=name)
            for slot_id in range(int(size))
        ]
        #: Total processes forked over the pool's lifetime (initial
        #: spawns + respawns) — drivers mirror this into telemetry.
        self.spawned = 0

    def start(self) -> None:
        for slot in self.slots:
            slot.spawn()
            self.spawned += 1

    @property
    def alive_count(self) -> int:
        return sum(1 for slot in self.slots if slot.alive)

    def idle_slots(self) -> List["_WorkerSlot"]:
        return [
            slot for slot in self.slots
            if slot.inflight is None and slot.alive
        ]

    def send(self, slot: "_WorkerSlot", pid: str, message,
             timeout: Optional[float]) -> None:
        """Hand ``message``, the work for point ``pid``, to an idle
        ``slot``.  With a soft ``timeout`` the slot also gets a hard
        deadline, past which :meth:`poll` kills it."""
        slot.inflight = pid
        slot.deadline = (
            None if timeout is None
            else _now() + timeout * HARD_TIMEOUT_FACTOR + 1.0
        )
        slot.inbox.put(message)

    def poll(self, wait: float) -> List[Outcome]:
        """Wait up to ``wait`` seconds for one worker report and drain
        the rest, then respawn every dead slot and kill and respawn
        every slot past its hard deadline.

        Returns the outcomes: ``done``, ``failed`` and ``timeout`` as
        the worker reported them (each frees its slot), then
        ``crashed`` (the payload is the exit code) and ``hung``, whose
        point id is the point the slot had in flight, or ``None`` if
        the slot was idle.
        """
        reports = []
        try:
            reports.append(self.results.get(timeout=wait))
            while True:
                reports.append(self.results.get(block=False))
        except queue.Empty:
            pass
        outcomes: List[Outcome] = []
        for kind, slot_id, pid, payload in reports:
            if kind == "bye":
                continue
            slot = self.slots[slot_id]
            if slot.inflight == pid:
                slot.inflight = slot.deadline = None
            outcomes.append((kind, slot_id, pid, payload))
        now = _now()
        for slot in self.slots:
            if not slot.alive:
                outcomes.append(("crashed", slot.slot_id, slot.inflight,
                                 slot.proc.exitcode))
            elif slot.deadline is not None and now > slot.deadline:
                outcomes.append(("hung", slot.slot_id, slot.inflight, None))
                slot.kill()
                slot.proc.join(timeout=5.0)
            else:
                continue
            slot.respawn()
            self.spawned += 1
        return outcomes

    def close(self, grace: float = 2.0) -> None:
        """Shut every worker down (sentinel, then SIGKILL stragglers)
        and release the results queue."""
        for slot in self.slots:
            slot.shutdown()
        deadline = _now() + grace
        for slot in self.slots:
            if slot.proc is not None:
                slot.proc.join(timeout=max(0.0, deadline - _now()))
                if slot.proc.is_alive():
                    slot.kill()
                    slot.proc.join(timeout=1.0)
        self.results.close()
        self.results.cancel_join_thread()


class _Scheduler:
    """One driver session over a fixed point list."""

    def __init__(
        self,
        points: Sequence[SweepPoint],
        jobs: int,
        retries: int,
        backoff: float,
        timeout: Optional[float],
        writer: Optional[JournalWriter],
        pre_done: Optional[Dict[str, Dict]] = None,
        pre_quarantined: Optional[Dict[str, Dict]] = None,
    ) -> None:
        if not points:
            raise SweepError("cannot sweep an empty point list")
        if retries < 0:
            raise SweepError(f"retry budget must be >= 0: {retries}")
        if timeout is not None and not timeout > 0:
            raise SweepError(
                f"per-point timeout must be > 0 seconds: {timeout}"
            )
        self.points = list(points)
        # Inline (no worker processes) only when the caller *asked*
        # for a serial sweep; a one-point sweep at jobs>=2 still gets
        # process isolation (a crashing point must not kill the
        # driver).
        self.inline = int(jobs) <= 1
        self.jobs = max(1, min(int(jobs), len(self.points)))
        self.retries = retries
        self.backoff = max(0.0, backoff)
        self.timeout = timeout
        self.writer = writer
        self.telemetry = SweepTelemetry()
        self.telemetry.points_total = len(self.points)

        self.records: Dict[str, PointRecord] = {}
        for point in self.points:
            try:
                run_key = point.plan().key
            except Exception:
                # An unplannable point (bad version, bad fault spec)
                # still schedules; the worker's failure report carries
                # the real traceback into the quarantine record.
                run_key = None
            pid = point.point_id
            if pid in self.records:
                raise SweepError(
                    f"duplicate point id {pid} (points {point.index} "
                    f"and {self.records[pid].point.index})"
                )
            self.records[pid] = PointRecord(point=point, run_key=run_key)

        # Prior-session terminal state (resume path).
        self.done: Dict[str, Dict] = dict(pre_done or {})
        self.quarantined: Dict[str, Dict] = dict(pre_quarantined or {})
        self.executed: Set[str] = set()
        self.key_done: Dict[str, Dict] = {}
        for pid, record in self.done.items():
            state = self.records.get(pid)
            if state is not None:
                state.status = "done"
                state.summary = record.get("summary")
                if state.run_key and state.summary is not None:
                    self.key_done.setdefault(state.run_key, state.summary)
        for pid in self.quarantined:
            if pid in self.records and pid not in self.done:
                self.records[pid].status = "quarantined"

        self.key_inflight: Dict[str, str] = {}
        self.parked: Dict[str, List[str]] = {}
        self.pending_retry: List[Tuple[float, str]] = []
        #: FIFO of point ids to dispatch; released duplicates and
        #: promoted retries rejoin at the tail.
        self.todo: collections.deque = collections.deque(
            p.point_id for p in self.points
            if self.records[p.point_id].status == "pending"
        )

    # -- journal ---------------------------------------------------------
    def _journal(self, record: Dict) -> None:
        if self.writer is not None:
            self.writer.append(record)

    # -- terminal transitions -------------------------------------------
    def _complete(
        self, pid: str, summary: Dict, worker: Optional[int],
        dedup: bool = False,
    ) -> None:
        state = self.records[pid]
        if state.status in ("done", "quarantined"):
            return
        record = {
            "event": "done",
            "point": pid,
            "index": state.point.index,
            "run_key": state.run_key,
            "summary": summary,
            "dedup": dedup,
            "worker": worker,
        }
        self._journal(record)
        state.status = "done"
        state.summary = summary
        state.dedup = dedup
        self.done[pid] = record
        self.telemetry.points_done += 1
        if dedup:
            self.telemetry.dedup_hits += 1
        elif summary.get("cache_hit"):
            self.telemetry.cache_hits += 1
        if not dedup:
            self.executed.add(pid)
        if state.run_key is not None:
            self.key_done.setdefault(state.run_key, summary)
            self.key_inflight.pop(state.run_key, None)
            for parked_pid in self.parked.pop(state.run_key, []):
                self._complete(parked_pid, summary, worker=None, dedup=True)

    def _quarantine(self, pid: str, error: str,
                    traceback: Optional[str]) -> None:
        state = self.records[pid]
        if state.status in ("done", "quarantined"):
            return
        record = {
            "event": "quarantined",
            "point": pid,
            "index": state.point.index,
            "run_key": state.run_key,
            "attempts": state.attempts,
            "error": error,
            "traceback": traceback,
        }
        self._journal(record)
        state.status = "quarantined"
        state.error = error
        state.traceback = traceback
        self.quarantined[pid] = record
        self.telemetry.points_quarantined += 1
        self._release_parked(state)

    def _release_parked(self, state: PointRecord) -> None:
        """The executing point of a run key failed: wake its clones."""
        if state.run_key is None:
            return
        self.key_inflight.pop(state.run_key, None)
        for parked_pid in self.parked.pop(state.run_key, []):
            parked = self.records[parked_pid]
            if parked.status == "parked":
                parked.status = "pending"
                self.todo.append(parked_pid)

    def _fail_attempt(self, pid: str, error: str,
                      traceback: Optional[str],
                      timed_out: bool = False) -> None:
        state = self.records[pid]
        if state.status in ("done", "quarantined"):
            return
        state.attempts += 1
        self._release_parked(state)
        if timed_out:
            self.telemetry.timeouts += 1
        if state.attempts > self.retries:
            self._quarantine(pid, error, traceback)
            return
        event = "timeout" if timed_out else "retry"
        self._journal({
            "event": event,
            "point": pid,
            "attempt": state.attempts,
            "error": error,
        })
        self.telemetry.retries += 1
        state.status = "pending"
        delay = self.backoff * (2.0 ** (state.attempts - 1))
        self.pending_retry.append((_now() + delay, pid))

    # -- dispatch --------------------------------------------------------
    def _promote_retries(self) -> None:
        if not self.pending_retry:
            return
        now = _now()
        still_waiting = []
        for ready_at, pid in self.pending_retry:
            if ready_at <= now:
                if self.records[pid].status == "pending":
                    self.todo.append(pid)
            else:
                still_waiting.append((ready_at, pid))
        self.pending_retry = still_waiting

    def _next(self) -> Optional[str]:
        """Pop the next point id to execute, resolving dedup
        driver-side: a duplicate of a finished run completes without
        touching a worker, one of a running run parks."""
        while self.todo:
            pid = self.todo.popleft()
            state = self.records[pid]
            if state.status != "pending":
                continue
            key = state.run_key
            if key is not None and key in self.key_done:
                self._complete(
                    pid, dict(self.key_done[key], cache_hit=True),
                    worker=None, dedup=True,
                )
                continue
            if key is not None and key in self.key_inflight:
                state.status = "parked"
                self.parked.setdefault(key, []).append(pid)
                continue
            if key is not None:
                self.key_inflight[key] = pid
            state.status = "inflight"
            return pid
        return None

    def _settle(self, kind: str, slot_id: int, pid: Optional[str],
                payload) -> None:
        """Apply one worker outcome (see :meth:`WorkerPool.poll`)."""
        if kind in ("crashed", "hung"):
            self.telemetry.worker_crashes += 1
        if pid is None:
            return
        if kind == "done":
            self._complete(pid, payload, worker=slot_id)
        else:
            self._fail_attempt(
                pid, *outcome_error(kind, payload, self.timeout, "point")
            )

    @property
    def _open_count(self) -> int:
        return sum(
            1 for record in self.records.values()
            if record.status not in ("done", "quarantined")
        )

    # -- the driver loop -------------------------------------------------
    def run(self) -> SweepOutcome:
        if self._open_count == 0:
            return self._outcome()
        if self.inline:
            return self._run_inline()
        pool = WorkerPool(self.jobs)
        try:
            pool.start()
            while True:
                self.telemetry.workers_spawned = pool.spawned
                self._promote_retries()
                for slot in pool.idle_slots():
                    pid = self._next()
                    if pid is None:
                        break
                    pool.send(slot, pid,
                              (self.records[pid].point, self.timeout),
                              self.timeout)
                if self._open_count == 0:
                    break
                for outcome in pool.poll(TICK_S):
                    self._settle(*outcome)
        finally:
            pool.close()
        return self._outcome()

    def _run_inline(self) -> SweepOutcome:
        """Serial in-process execution (``jobs=1``): same lifecycle,
        same journal records, no worker processes."""
        while self._open_count > 0:
            self._promote_retries()
            pid = self._next()
            if pid is None:
                # Only backoff-delayed retries are left.
                ready_at = min(r for r, _ in self.pending_retry)
                time.sleep(max(0.0, ready_at - _now()))
                continue
            kind, payload = worker_module.execute_point(
                self.records[pid].point, self.timeout
            )
            self._settle(kind, 0, pid, payload)
        return self._outcome()

    def _outcome(self) -> SweepOutcome:
        self._journal({
            "event": "finished",
            "counts": {
                "total": len(self.points),
                "completed": len(self.done),
                "quarantined": len(self.quarantined),
            },
            "telemetry": self.telemetry.snapshot(),
        })
        return SweepOutcome(
            points=self.points,
            done=self.done,
            quarantined=self.quarantined,
            executed=self.executed,
            telemetry=self.telemetry.snapshot(),
            journal_path=(
                str(self.writer.path) if self.writer is not None else None
            ),
        )


# -- public API ----------------------------------------------------------
def run_points(
    points: Sequence[SweepPoint],
    jobs: int = 2,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    timeout: Optional[float] = None,
) -> SweepOutcome:
    """Programmatic entry: sweep an explicit point list, unjournaled.

    This is the backend ``prewarm`` and the chaos progressions dispatch
    onto; resumability requires a declarative grid — use
    :func:`run_grid` for that.
    """
    scheduler = _Scheduler(
        points, jobs=jobs, retries=retries, backoff=backoff,
        timeout=timeout, writer=None,
    )
    return scheduler.run()


def run_grid(
    grid: SweepGrid,
    journal_path,
    jobs: int = 2,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    timeout: Optional[float] = None,
) -> SweepOutcome:
    """Execute a declarative grid with a fresh journal at
    ``journal_path`` (refuses to overwrite an existing journal — that
    is what :func:`resume` is for)."""
    from pathlib import Path

    path = Path(journal_path)
    if path.exists():
        raise SweepError(
            f"journal {path} already exists; use `repro sweep resume` "
            "to continue it (or remove it for a fresh run)"
        )
    points = grid.expand()
    # Built before the journal exists, so a rejected argument leaves
    # no journal behind.
    scheduler = _Scheduler(
        points, jobs=jobs, retries=retries, backoff=backoff,
        timeout=timeout, writer=None,
    )
    with JournalWriter(path) as writer:
        writer.append(header_record(grid, len(points)))
        scheduler.writer = writer
        return scheduler.run()


def resume(
    journal_path,
    jobs: int = 2,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    timeout: Optional[float] = None,
) -> SweepOutcome:
    """Pick a journaled sweep up after a crash or kill.

    Re-expands the grid spec embedded in the journal header, verifies
    its hash, replays terminal records, and schedules only the
    remainder — zero re-simulation of journaled-complete points.
    Completed sweeps resume into an immediate no-op outcome.
    """
    state = read_journal(journal_path)
    grid = SweepGrid.from_dict(state.grid_spec)
    if state.grid_hash and grid.grid_hash != state.grid_hash:
        raise SweepError(
            f"journal {journal_path} grid hash {state.grid_hash} does "
            f"not match its own spec ({grid.grid_hash}); refusing to "
            "resume over a tampered journal"
        )
    points = grid.expand()
    known = {p.point_id for p in points}
    stray = (set(state.done) | set(state.quarantined)) - known
    if stray:
        raise SweepError(
            f"journal {journal_path} references {len(stray)} point(s) "
            "outside its own grid; refusing to resume"
        )
    with JournalWriter(journal_path) as writer:
        scheduler = _Scheduler(
            points, jobs=jobs, retries=retries, backoff=backoff,
            timeout=timeout, writer=writer,
            pre_done=state.done, pre_quarantined=state.quarantined,
        )
        return scheduler.run()


def status(journal_path) -> Tuple[SweepGrid, JournalState]:
    """Replay a journal for reporting (no execution)."""
    state = read_journal(journal_path)
    grid = SweepGrid.from_dict(state.grid_spec)
    return grid, state
