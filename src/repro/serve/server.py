"""The serve HTTP surface: a stdlib-only traffic-serving front end.

One :class:`ThreadingHTTPServer` (a thread per connection) in front of
one :class:`~repro.serve.jobs.JobManager`.  Handler threads only touch
the manager's lock-guarded ledger — simulation happens in the
manager's worker processes — so a slow or crashing run never blocks
the HTTP plane, and repeat queries answer from the run cache without
waking a worker at all.

Routes (all JSON unless noted):

- ``POST /v1/runs``                 submit a run spec (202 fresh, 200
  answered from cache / deduplicated onto an existing job)
- ``GET  /v1/runs``                 list jobs
- ``GET  /v1/runs/<id>``            job state (id or client name)
- ``GET  /v1/runs/<id>/result``     summary + the stored SDDF trace
  text, sent as stored after a length and SHA-256 check
- ``GET  /v1/runs/<id>/events``     chunked JSONL event stream: job
  lifecycle, then per-sample telemetry rows, then an ``end`` record
- ``GET  /v1/metrics``              OpenMetrics exposition
- ``GET  /v1/cache/stats``          run-cache STATS sidecar
- ``GET  /v1/status``               server + worker-pool health
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.errors import (
    ReproError,
    ServeDuplicateJobError,
    ServeError,
    ServeJobNotFoundError,
    ServeSaturatedError,
    ServeSpecError,
)
from repro.experiments import cache
from repro.experiments.sweep.scheduler import TICK_S, _now
# Not called here, but perfbench/spans.py patches ``server.write_sddf``
# by name when it traces a serve run, so the binding must stay.
from repro.pablo.sddf import write_sddf  # noqa: F401
from repro.serve.jobs import DEFAULT_MAX_QUEUE, JobManager, job_payload
from repro.serve.spec import RunRequest
from repro.telemetry.export import to_openmetrics

#: HTTP status per serve-error type (the client maps these back).
ERROR_STATUS = (
    (ServeSpecError, 400),
    (ServeJobNotFoundError, 404),
    (ServeDuplicateJobError, 409),
    (ServeSaturatedError, 503),
)

#: Event-stream poll interval while a job is still running.
STREAM_POLL_S = TICK_S


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive + chunked responses need 1.1.
    protocol_version = "HTTP/1.1"

    @property
    def manager(self) -> JobManager:
        return self.server.serve_app.manager

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # request logging stays out of stdout/stderr

    # -- plumbing --------------------------------------------------------
    def _send_json(self, code: int, payload) -> None:
        body = json.dumps(payload, sort_keys=True).encode() + b"\n"
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: Exception) -> None:
        for err_type, code in ERROR_STATUS:
            if isinstance(exc, err_type):
                break
        else:
            code = 500
        self._send_json(code, {
            "error": str(exc),
            "type": type(exc).__name__,
        })

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServeSpecError(f"request body is not JSON: {exc}") from exc

    # -- routes ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        try:
            if self.path != "/v1/runs":
                raise ServeJobNotFoundError(f"no such route: {self.path}")
            request = RunRequest.from_dict(self._read_body())
            manager = self.manager
            known_before = request.run_key in manager.key_to_job
            job = manager.submit(request)
            fresh = (
                job.state == "queued" and not known_before
                and job.dedup_clients == 0
            )
            self._send_json(202 if fresh else 200, job_payload(job))
        except ReproError as exc:
            self._send_error(exc)

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        try:
            parts = [p for p in self.path.split("/") if p]
            if parts == ["v1", "runs"]:
                self._send_json(200, {
                    "jobs": [
                        job_payload(job)
                        for job in self.manager.list_jobs()
                    ],
                })
            elif parts[:2] == ["v1", "runs"] and len(parts) == 3:
                job = self.manager.get(parts[2])
                self._send_json(200, job_payload(job, events=True))
            elif (parts[:2] == ["v1", "runs"] and len(parts) == 4
                    and parts[3] == "result"):
                self._send_result(parts[2])
            elif (parts[:2] == ["v1", "runs"] and len(parts) == 4
                    and parts[3] == "events"):
                self._stream_events(parts[2])
            elif parts == ["v1", "metrics"]:
                registry = self.manager.as_registry()
                self._send_text(
                    200, to_openmetrics(registry.collect()),
                    "application/openmetrics-text; version=1.0.0; "
                    "charset=utf-8",
                )
            elif parts == ["v1", "cache", "stats"]:
                self._send_json(200, cache.stats())
            elif parts == ["v1", "status"]:
                self._send_json(200, self.server.serve_app.status())
            else:
                raise ServeJobNotFoundError(
                    f"no such route: {self.path}"
                )
        except ReproError as exc:
            self._send_error(exc)

    def _send_result(self, job_id: str) -> None:
        job = self.manager.get(job_id)
        if job.state != "done":
            raise ServeJobNotFoundError(
                f"job {job.id} has no result (state: {job.state})"
            )
        sddf = cache.stored_sddf(job.request.run_key)
        if sddf is None:
            raise ServeJobNotFoundError(
                f"job {job.id} result was evicted from the run cache "
                "or failed its integrity check; resubmit the spec to "
                "regenerate it"
            )
        self._send_json(200, {
            "job": job.id,
            "summary": job.summary,
            "sddf": sddf.decode("utf-8"),
        })

    def _stream_events(self, job_id: str) -> None:
        """Chunked JSONL: replay the job's event log as it grows,
        then telemetry samples (if any), then an ``end`` record."""
        job = self.manager.get(job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        sent = 0
        while True:
            events = list(job.events)
            for record in events[sent:]:
                self._write_chunk(record)
            sent = len(events)
            if job.terminal and sent == len(job.events):
                break
            self._stop_event.wait(STREAM_POLL_S)
            if self._stop_event.is_set():
                break
        series = job.timeseries
        if series and series.get("times"):
            names = sorted(series.get("series", {}))
            for i, t in enumerate(series["times"]):
                row = {"event": "sample", "t": t}
                for name in names:
                    row[name] = series["series"][name][i]
                self._write_chunk(row)
        self._write_chunk({"event": "end", "job": job.id,
                           "state": job.state})
        self.wfile.write(b"0\r\n\r\n")

    @property
    def _stop_event(self) -> threading.Event:
        return self.server.serve_app._shutdown

    def _write_chunk(self, record) -> None:
        data = json.dumps(record, sort_keys=True).encode() + b"\n"
        self.wfile.write(f"{len(data):x}\r\n".encode())
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()


class ReproServeServer:
    """The assembled service: job manager + threaded HTTP server.

    ``port=0`` binds an ephemeral port (tests, perfbench's serve-mix); the
    bound address is readable from :attr:`host`/:attr:`port` after
    construction.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 2,
        retries: int = 1,
        backoff: float = 0.05,
        timeout: Optional[float] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        journal=None,
    ) -> None:
        if not cache.cache_enabled():
            raise ServeError(
                "repro serve requires the run cache "
                "(REPRO_CACHE=0 is set); the cache is the hot path"
            )
        self.manager = JobManager(
            workers=workers, retries=retries, backoff=backoff,
            timeout=timeout, max_queue=max_queue, journal_path=journal,
        )
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.serve_app = self
        self._shutdown = threading.Event()
        self._serve_thread: Optional[threading.Thread] = None
        self.started_at: Optional[float] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        # Fork the worker pool before accepting connections: forking
        # after HTTP threads exist is the classic fork-with-threads
        # hazard, so the ordering here is load-bearing.
        self.manager.start()
        self.started_at = _now()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="serve-http", daemon=True,
        )
        self._serve_thread.start()

    def stop(self, drain_timeout: float = 30.0) -> bool:
        """Graceful shutdown: drain in-flight jobs, stop accepting
        connections, journal the pending backlog, release the pool.
        Returns whether the drain completed in time."""
        drained = self.manager.drain(timeout=drain_timeout)
        self._shutdown.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self.manager.close()
        return drained

    def status(self) -> dict:
        manager = self.manager
        pool = manager._pool
        return {
            "draining": manager.draining,
            "uptime_s": (
                None if self.started_at is None
                else _now() - self.started_at
            ),
            "workers": {
                "slots": manager.workers,
                "alive": pool.alive_count if pool is not None else 0,
                "spawned": pool.spawned if pool is not None else 0,
            },
            "counters": dict(manager.counters),
            "jobs": manager.state_counts(),
        }
