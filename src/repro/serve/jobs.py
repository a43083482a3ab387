"""The serve job manager: cached answers fast, fresh runs safely.

Submissions resolve in strict order of cheapness:

1. **Name idempotency.**  A re-submission under a known job ``name``
   with the same run key returns the existing job; a different spec
   under a taken name is a conflict (HTTP 409).
2. **In-flight dedup.**  A spec whose run key is already queued or
   running attaches the caller to that job — N concurrent clients
   submitting the same spec simulate exactly once.
3. **Cache hit.**  :func:`repro.experiments.cache.peek` answers repeat
   queries straight from the content-addressed run cache's sidecar —
   no simulation, no journal write, no fsync: the sub-millisecond hot
   path.
4. **Fresh run.**  Everything else is journaled (fsync before it is
   visible), queued, and dispatched onto a
   :class:`~repro.experiments.sweep.scheduler.WorkerPool` — the same
   crash-tolerant substrate as ``repro sweep run``, so a crashing or
   hanging simulation never takes the server with it.

The journal (:class:`~repro.experiments.sweep.journal.JournalWriter`
underneath) makes the service SIGKILL-tolerant:
:func:`read_serve_journal` replays it on restart, completed jobs keep
their results, and interrupted jobs re-queue under their original ids.
"""

from __future__ import annotations

import collections
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import (
    ServeDuplicateJobError,
    ServeError,
    ServeJobNotFoundError,
    ServeSaturatedError,
)
from repro.experiments import cache
from repro.experiments.sweep import worker as sweep_worker
from repro.experiments.sweep.aggregate import point_rows
from repro.experiments.sweep.journal import JournalWriter, parse_records
from repro.experiments.sweep.scheduler import (
    DEFAULT_BACKOFF,
    TICK_S,
    WorkerPool,
    _now,
    outcome_error,
)
from repro.serve.spec import RunRequest

#: Default bound on queued + in-flight fresh jobs (HTTP 503 beyond).
DEFAULT_MAX_QUEUE = 64

#: Journal format tag (parallel to the sweep journal's "sweep").
JOURNAL_KIND = "serve"


def execute_serve_point(point, wall_timeout, with_telemetry):
    """Worker-side execution of one served point: the sweep worker's
    :func:`execute_point` with the job's opt-in telemetry mode."""
    return sweep_worker.execute_point(point, wall_timeout, with_telemetry)


def serve_worker_main(worker_id: int, inbox, results) -> None:
    """Worker process body for served runs: the sweep worker's loop,
    running :func:`execute_serve_point` on three-field inbox messages
    that carry the telemetry flag."""
    sweep_worker.worker_main(worker_id, inbox, results, execute_serve_point)


class Job:
    """One submitted run: identity, lifecycle state, and its event
    log (which the chunked ``/events`` endpoint streams)."""

    TERMINAL = ("done", "failed")

    def __init__(self, job_id: str, seq: int, request: RunRequest) -> None:
        self.id = job_id
        self.seq = seq
        self.request = request
        self.state = "queued"  # queued|running|done|failed
        self.attempts = 0
        self.cache_hit = False
        self.dedup_clients = 0
        self.summary: Optional[Dict] = None
        self.error: Optional[str] = None
        self.traceback: Optional[str] = None
        #: Timeseries from a telemetry run (events endpoint only —
        #: stripped from the journaled summary, which must stay small).
        self.timeseries: Optional[Dict] = None
        self.events: List[Dict] = []

    @property
    def terminal(self) -> bool:
        return self.state in self.TERMINAL

    def event(self, kind: str, **fields) -> None:
        self.events.append(dict({"event": kind, "job": self.id}, **fields))


def _job_id(seq: int, run_key: str) -> str:
    return f"j{seq:05d}-{run_key[:8]}"


def job_payload(job: Job, events: bool = False) -> Dict:
    """The JSON document for one job.

    The per-point ``point`` block comes from the sweep aggregate's
    :func:`~repro.experiments.sweep.aggregate.point_rows` — the same
    serializer behind ``repro sweep status --json`` — so both
    machine-readable surfaces share one row shape by construction.
    """
    pid = job.request.point.point_id
    done: Dict[str, Dict] = {}
    quarantined: Dict[str, Dict] = {}
    if job.state == "done":
        done[pid] = {"summary": job.summary}
    elif job.state == "failed":
        quarantined[pid] = {"error": job.error}
    payload = {
        "job": job.id,
        "name": job.request.name or None,
        "state": job.state,
        "attempts": job.attempts,
        "cache_hit": job.cache_hit,
        "dedup_clients": job.dedup_clients,
        "run_key": job.request.run_key,
        "spec": job.request.canonical(),
        "point": point_rows([job.request.point], done, quarantined)[0],
        "error": job.error,
    }
    if events:
        payload["events"] = list(job.events)
    return payload


class JobManager:
    """Thread-safe job ledger plus a driver thread over a
    :class:`WorkerPool`.  The loop is the sweep scheduler's: promote
    due retries, send queued jobs to idle slots, then settle what the
    pool's :meth:`~WorkerPool.poll` reports (which also respawns
    crashed workers and kills hung ones), over an endless queue
    instead of a fixed point list."""

    def __init__(
        self,
        workers: int = 2,
        retries: int = 1,
        backoff: float = DEFAULT_BACKOFF,
        timeout: Optional[float] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        journal_path=None,
    ) -> None:
        if int(workers) < 1:
            raise ServeError(f"serve needs >= 1 worker: {workers}")
        if int(max_queue) < 1:
            raise ServeError(f"max_queue must be >= 1: {max_queue}")
        if timeout is not None and not timeout > 0:
            raise ServeError(f"job timeout must be > 0 seconds: {timeout}")
        self.workers = int(workers)
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, backoff)
        self.timeout = timeout
        self.max_queue = int(max_queue)
        self.journal_path = Path(journal_path) if journal_path else None

        self._lock = threading.RLock()
        self.jobs: Dict[str, Job] = {}
        self.by_name: Dict[str, str] = {}
        #: run_key -> job id, non-terminal jobs only (dedup window).
        self.key_to_job: Dict[str, str] = {}
        self.pending: collections.deque = collections.deque()
        self.pending_retry: List = []  # (ready_at, job_id)
        self.inflight: Dict[str, str] = {}  # point_id -> job_id
        self.seq = 0
        self.draining = False

        self.counters = {
            name: 0 for name in (
                "submitted", "cache_hits", "dedup_hits", "executed",
                "done", "failed", "retries", "timeouts",
                "worker_crashes",
            )
        }

        self._writer: Optional[JournalWriter] = None
        self._pool: Optional[WorkerPool] = None
        self._loop: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._recovered: List[str] = []

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Open (and replay) the journal, fork the pool, start the
        driver loop.  Workers fork *before* any HTTP thread exists —
        the standard fork-with-threads hazard is confined to respawns."""
        if self.journal_path is not None:
            state = read_serve_journal(self.journal_path)
            self._writer = JournalWriter(self.journal_path)
            if state is None:
                self._writer.append({
                    "kind": JOURNAL_KIND,
                    "event": "header",
                    "version": 1,
                })
            else:
                self._replay(state)
        pool = WorkerPool(
            self.workers, target=serve_worker_main, name="serve"
        )
        pool.start()
        self._pool = pool
        self._loop = threading.Thread(
            target=self._run_loop, name="serve-jobs", daemon=True
        )
        self._loop.start()

    def _replay(self, state: "ServeJournalState") -> None:
        """Rebuild the ledger from a prior process's journal: done and
        failed jobs keep their records; interrupted ones re-queue."""
        for record in state.jobs:
            request = RunRequest.from_dict(record["spec"])
            job = Job(record["job"], record["seq"], request)
            self.jobs[job.id] = job
            if request.name:
                self.by_name[request.name] = job.id
            self.seq = max(self.seq, record["seq"])
            if record["job"] in state.done:
                job.state = "done"
                job.summary = state.done[record["job"]].get("summary")
                job.event("recovered", state="done")
            elif record["job"] in state.failed:
                failed = state.failed[record["job"]]
                job.state = "failed"
                job.error = failed.get("error")
                job.event("recovered", state="failed")
            else:
                # Interrupted (queued or mid-run when the process
                # died): back onto the queue under the same id.
                job.event("recovered", state="requeued")
                job.event("queued")
                self.key_to_job[request.run_key] = job.id
                self.pending.append(job.id)
                self._recovered.append(job.id)

    def close(self) -> None:
        """Stop the loop, tear the pool down, journal what is still
        pending (so a restart knows), close the journal."""
        self._stop.set()
        if self._loop is not None:
            self._loop.join(timeout=10.0)
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        with self._lock:
            open_ids = [
                job.id for job in self.jobs.values() if not job.terminal
            ]
            if self._writer is not None:
                self._journal({"event": "shutdown", "pending": open_ids})
                self._writer.close()
                self._writer = None

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop accepting fresh work and wait for in-flight jobs (not
        the queued backlog) to finish.  Returns completion."""
        with self._lock:
            self.draining = True
        deadline = _now() + max(0.0, timeout)
        while _now() < deadline:
            with self._lock:
                if not self.inflight:
                    return True
            self._stop.wait(TICK_S)
        with self._lock:
            return not self.inflight

    # -- journal ---------------------------------------------------------
    def _journal(self, record: Dict) -> None:
        if self._writer is not None:
            self._writer.append(record)

    # -- submission ------------------------------------------------------
    def submit(self, request: RunRequest) -> Job:
        """Resolve a submission (see module docstring for the order)."""
        with self._lock:
            self.counters["submitted"] += 1
            if request.name:
                existing_id = self.by_name.get(request.name)
                if existing_id is not None:
                    existing = self.jobs[existing_id]
                    if existing.request.run_key != request.run_key:
                        raise ServeDuplicateJobError(
                            f"job name {request.name!r} already taken by "
                            f"{existing_id} with a different spec"
                        )
                    existing.dedup_clients += 1
                    self.counters["dedup_hits"] += 1
                    return existing
            dedup_id = self.key_to_job.get(request.run_key)
            if dedup_id is not None:
                job = self.jobs[dedup_id]
                job.dedup_clients += 1
                self.counters["dedup_hits"] += 1
                return job
            meta = cache.peek(request.run_key)
            if meta is not None:
                # Hot path: a completed job materializes straight from
                # the run-cache sidecar.  Deliberately unjournaled — a
                # cache hit costs no fsync, and a restart re-answers it
                # from the cache just the same.
                self.seq += 1
                job = Job(_job_id(self.seq, request.run_key),
                          self.seq, request)
                job.state = "done"
                job.cache_hit = True
                job.summary = {
                    "application": meta.get("application"),
                    "app_version": meta.get("version"),
                    "dataset": meta.get("dataset"),
                    "n_nodes": meta.get("n_nodes"),
                    "wall_time": meta.get("wall_time"),
                    "io_node_seconds": meta.get("io_node_seconds"),
                    "events": meta.get("events"),
                    "cache_hit": True,
                }
                job.event("cache_hit")
                job.event("done")
                self.jobs[job.id] = job
                if request.name:
                    self.by_name[request.name] = job.id
                self.counters["cache_hits"] += 1
                self.counters["done"] += 1
                return job
            if self.draining:
                raise ServeSaturatedError(
                    "server is draining; not accepting fresh runs"
                )
            backlog = (
                len(self.pending) + len(self.pending_retry)
                + len(self.inflight)
            )
            if backlog >= self.max_queue:
                raise ServeSaturatedError(
                    f"job queue is full ({backlog} fresh jobs >= "
                    f"max_queue {self.max_queue}); retry later"
                )
            self.seq += 1
            job = Job(_job_id(self.seq, request.run_key),
                      self.seq, request)
            self.jobs[job.id] = job
            if request.name:
                self.by_name[request.name] = job.id
            self.key_to_job[request.run_key] = job.id
            self._journal({
                "event": "job",
                "job": job.id,
                "seq": job.seq,
                "spec": request.canonical(),
            })
            job.event("queued")
            self.pending.append(job.id)
            return job

    # -- queries ---------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self.jobs.get(job_id) or self.jobs.get(
                self.by_name.get(job_id, "")
            )
            if job is None:
                raise ServeJobNotFoundError(f"no such job: {job_id}")
            return job

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self.jobs.values(), key=lambda j: j.seq)

    def state_counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
            for job in self.jobs.values():
                counts[job.state] += 1
            return counts

    def as_registry(self):
        """Live ``serve_*`` gauges over the manager's counters (the
        same callback-gauge wiring as :class:`SweepTelemetry`)."""
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        for name in sorted(self.counters):
            registry.gauge_fn(
                f"serve_jobs_{name}",
                (lambda n=name: float(self.counters[n])),
                help=f"serve job manager counter: {name}",
            )
        registry.gauge_fn(
            "serve_jobs_pending",
            lambda: float(len(self.pending) + len(self.pending_retry)),
            help="fresh jobs queued but not yet dispatched",
        )
        registry.gauge_fn(
            "serve_jobs_inflight",
            lambda: float(len(self.inflight)),
            help="jobs currently executing on a worker",
        )
        registry.gauge_fn(
            "serve_workers_alive",
            lambda: float(
                self._pool.alive_count if self._pool is not None else 0
            ),
            help="worker processes currently alive",
        )
        registry.gauge_fn(
            "serve_workers_spawned",
            lambda: float(
                self._pool.spawned if self._pool is not None else 0
            ),
            help="worker processes forked over the server's lifetime",
        )
        return registry

    # -- driver loop -----------------------------------------------------
    def _run_loop(self) -> None:
        pool = self._pool
        while not self._stop.is_set():
            with self._lock:
                self._promote_retries()
                for slot in pool.idle_slots():
                    if not self._dispatch_to(slot):
                        break
            try:
                outcomes = pool.poll(TICK_S)
            except (OSError, ValueError):  # pragma: no cover
                # Queue teardown racing the loop during shutdown.
                if self._stop.is_set():
                    return
                raise
            with self._lock:
                for outcome in outcomes:
                    self._settle(*outcome)

    def _promote_retries(self) -> None:
        if not self.pending_retry:
            return
        now = _now()
        still_waiting = []
        for ready_at, job_id in self.pending_retry:
            if ready_at <= now:
                self.pending.append(job_id)
            else:
                still_waiting.append((ready_at, job_id))
        self.pending_retry = still_waiting

    def _dispatch_to(self, slot) -> bool:
        if self.draining:
            return False
        while self.pending:
            job = self.jobs[self.pending.popleft()]
            if job.terminal:  # defensive; should not happen
                continue
            job.state = "running"
            job.event("running", attempt=job.attempts + 1,
                      worker=slot.slot_id)
            pid = job.request.point.point_id
            self.inflight[pid] = job.id
            self._pool.send(
                slot, pid,
                (job.request.point, self.timeout, job.request.telemetry),
                self.timeout,
            )
            return True
        return False

    def _settle(self, kind: str, slot_id: int, pid: Optional[str],
                payload) -> None:
        """Apply one worker outcome (see :meth:`WorkerPool.poll`)."""
        if kind in ("crashed", "hung"):
            self.counters["worker_crashes"] += 1
        if pid is None:
            return
        if kind == "done":
            self._complete(pid, payload)
        else:
            self._fail_attempt(
                pid, *outcome_error(kind, payload, self.timeout, "job")
            )

    def _complete(self, pid: str, summary: Dict) -> None:
        job_id = self.inflight.pop(pid, None)
        if job_id is None:
            return
        job = self.jobs[job_id]
        job.timeseries = summary.pop("timeseries", None)
        # Journal *before* the in-memory transition (the sweep
        # engine's ordering): a crash right here re-runs the job,
        # never loses it.
        self._journal({
            "event": "done",
            "job": job.id,
            "summary": summary,
        })
        job.state = "done"
        job.attempts += 1
        job.summary = summary
        job.event("done", cache_hit=bool(summary.get("cache_hit")))
        self.key_to_job.pop(job.request.run_key, None)
        self.counters["executed"] += 1
        self.counters["done"] += 1

    def _fail_attempt(self, pid: str, error: str,
                      traceback: Optional[str],
                      timed_out: bool = False) -> None:
        job_id = self.inflight.pop(pid, None)
        if job_id is None:
            return
        job = self.jobs[job_id]
        job.attempts += 1
        if timed_out:
            self.counters["timeouts"] += 1
        if job.attempts > self.retries:
            self._journal({
                "event": "failed",
                "job": job.id,
                "attempts": job.attempts,
                "error": error,
            })
            job.state = "failed"
            job.error = error
            job.traceback = traceback
            job.event("failed", error=error)
            self.key_to_job.pop(job.request.run_key, None)
            self.counters["failed"] += 1
            return
        self.counters["retries"] += 1
        job.state = "queued"
        job.event("retry", attempt=job.attempts, error=error)
        delay = self.backoff * (2.0 ** (job.attempts - 1))
        self.pending_retry.append((_now() + delay, job.id))


class ServeJournalState:
    """Replayed serve-journal records (parallel to
    :class:`~repro.experiments.sweep.journal.JournalState`)."""

    def __init__(self) -> None:
        self.jobs: List[Dict] = []
        self.done: Dict[str, Dict] = {}
        self.failed: Dict[str, Dict] = {}
        self.shutdowns: List[Dict] = []


def read_serve_journal(path) -> Optional[ServeJournalState]:
    """Replay a serve journal; ``None`` when no journal exists yet.

    Same tolerance contract as the sweep journal reader (one line
    parser, :func:`~repro.experiments.sweep.journal.parse_records`): a
    torn final line (the process died mid-append) is ignored,
    corruption anywhere else is an error — silently skipping interior
    records would fake completed work away.
    """
    path = Path(path)
    if not path.exists():
        return None
    records, _torn = parse_records(
        path.read_text(), f"serve journal {path}", ServeError
    )
    if not records:
        return None
    header = records[0]
    if header.get("kind") != JOURNAL_KIND:
        raise ServeError(
            f"{path} is not a serve journal (header kind "
            f"{header.get('kind')!r})"
        )
    state = ServeJournalState()
    for record in records[1:]:
        event = record["event"]
        if event == "job":
            state.jobs.append(record)
        elif event == "done":
            state.done[record["job"]] = record
        elif event == "failed":
            state.failed[record["job"]] = record
        elif event == "shutdown":
            state.shutdowns.append(record)
    return state
