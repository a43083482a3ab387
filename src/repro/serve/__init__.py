"""repro serve: a traffic-serving front end over the simulator.

The service answers repeat run queries straight from the
content-addressed run cache (no simulation on the hot path) and
schedules fresh runs onto the sweep engine's crash-tolerant worker
pool, journaled so a SIGKILL loses nothing that completed.  See
``docs/serve.md`` for the HTTP API and operational notes.

This package is deliberately *outside* the determinism lint scope
(:data:`repro.analysis.rules.SCOPED_PACKAGES`): serving is an
operational layer — wall-clock latencies, thread scheduling, socket
timeouts — whose outputs never feed simulated state.  Simulation
determinism is enforced where simulation happens.
"""

from repro.serve.client import STATUS_ERRORS, ServeClient
from repro.serve.jobs import (
    DEFAULT_MAX_QUEUE,
    Job,
    JobManager,
    ServeJournalState,
    execute_serve_point,
    job_payload,
    read_serve_journal,
    serve_worker_main,
)
from repro.serve.server import ReproServeServer
from repro.serve.spec import ALLOWED_KEYS, RunRequest

__all__ = [
    "ALLOWED_KEYS",
    "DEFAULT_MAX_QUEUE",
    "Job",
    "JobManager",
    "ReproServeServer",
    "RunRequest",
    "STATUS_ERRORS",
    "ServeClient",
    "ServeJournalState",
    "execute_serve_point",
    "job_payload",
    "read_serve_journal",
    "serve_worker_main",
]
