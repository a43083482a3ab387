"""Run ``repro serve`` for the serve-mix workload.

Usage: python3 perfbench/serve_child.py SPANS_PATH -- <repro serve args>

``SPANS_PATH`` empty: a plain ``repro serve``.  Otherwise the server
installs the benchmark's spans before it starts, and writes its span
aggregates to ``SPANS_PATH`` when it exits.  Worker processes (forked
from the server, so they inherit the spans) write theirs after every
job to ``SPANS_PATH.worker-<pid>``.
"""

import os
import sys

import spans


def _dump_after_each_job(execute, spans_path: str):
    owner = {"pid": os.getpid()}

    def execute_and_dump(*args, **kwargs):
        pid = os.getpid()
        if owner["pid"] != pid:
            # First job in a freshly forked worker: drop what the
            # server had recorded before the fork.
            spans.RECORDER.reset()
            owner["pid"] = pid
        try:
            return execute(*args, **kwargs)
        finally:
            spans.dump(f"{spans_path}.worker-{pid}", {"process": "worker"})

    return execute_and_dump


def main(argv) -> int:
    spans_path = argv[0]
    serve_args = argv[argv.index("--") + 1:]
    if spans_path:
        from repro.serve import jobs

        patches = spans.Patches()
        spans.install_simulation(patches)
        spans.install_storage(patches)
        spans.install_serve(patches)
        patches.set(jobs, "execute_serve_point", _dump_after_each_job(
            jobs.execute_serve_point, spans_path))
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    if spans_path:
        spans.dump(spans_path, {"process": "server"})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
