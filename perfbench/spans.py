"""Span recorder and layer patches for the traced benchmark run.

The traced run wraps the public entry points of each layer (and the
generators the simulation kernel resumes) with spans kept in memory.
Every span is a plain call, so spans nest strictly per thread and a
span's *self time* is its duration minus the time its child spans
cover.  Self times of all spans in one pass therefore add up to the
part of the pass wall that some span covers; the remainder is the
benchmark's own glue, and the ledger closure check bounds it.

A span name is ``"<layer>:<detail>"``; the ledger aggregates by layer.
Nothing here is imported by untraced runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

_perf = time.perf_counter

#: Spans at most this deep are kept individually (with start and end)
#: for the spans file; deeper ones are only aggregated.
KEEP_DEPTH = 2

#: Cap on individually kept spans, so a long run cannot grow memory.
KEEP_MAX = 20000


class Recorder:
    """Per-thread span stacks feeding per-thread aggregate tables."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self.kept = []
        #: Calls per generator-function span.
        self.calls = {}
        self.origin = _perf()

    def thread_state(self):
        """``(stack, table)`` of the calling thread, created on first use."""
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                for row in table.values():
                    row[0] = 0
                    row[1] = 0.0
                    row[2] = 0.0
            self.kept.clear()
            for name in self.calls:
                self.calls[name] = 0

    def close(self, name: str, stack, table, frame, end: float) -> None:
        duration = end - frame[0]
        row = table.get(name)
        if row is None:
            row = table[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration - frame[1]
        row[2] += duration
        if stack:
            stack[-1][1] += duration
        if len(stack) < KEEP_DEPTH and len(self.kept) < KEEP_MAX:
            self.kept.append((name, frame[0] - self.origin,
                              end - self.origin, len(stack)))

    def totals(self) -> dict:
        """``{span name: {"count", "self_s", "total_s"}}`` over all threads."""
        out = {}
        with self._lock:
            for table in self._tables:
                for name, (count, self_s, total_s) in list(table.items()):
                    row = out.setdefault(
                        name, {"count": 0, "self_s": 0.0, "total_s": 0.0})
                    row["count"] += count
                    row["self_s"] += self_s
                    row["total_s"] += total_s
        return out


RECORDER = Recorder()


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def layer_totals(totals: dict) -> dict:
    """Self seconds per layer."""
    out = {}
    for name, row in totals.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


def merge_totals(*tables: dict) -> dict:
    out = {}
    for table in tables:
        for name, row in table.items():
            dst = out.setdefault(
                name, {"count": 0, "self_s": 0.0, "total_s": 0.0})
            for key in dst:
                dst[key] += row[key]
    return out


def span_call(name: str, fn):
    """Wrap a plain callable in a span."""
    rec = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack, table = rec.thread_state()
        frame = [_perf(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            rec.close(name, stack, table, frame, end)

    wrapper.__perfbench_span__ = name
    return wrapper


class TimedGen:
    """A generator proxy whose every resume is a span.

    It speaks the generator protocol (``send``/``throw``/``close`` and
    iteration), so it works both under ``yield from`` and as the body
    of a kernel process.
    """

    __slots__ = ("_gen", "_name", "_stack", "_table")

    def __init__(self, gen, name: str) -> None:
        self._gen = gen
        self._name = name
        self._stack, self._table = RECORDER.thread_state()

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        stack = self._stack
        frame = [_perf(), 0.0]
        stack.append(frame)
        try:
            return self._gen.send(value)
        finally:
            end = _perf()
            stack.pop()
            RECORDER.close(self._name, stack, self._table, frame, end)

    def throw(self, *args):
        stack = self._stack
        frame = [_perf(), 0.0]
        stack.append(frame)
        try:
            return self._gen.throw(*args)
        finally:
            end = _perf()
            stack.pop()
            RECORDER.close(self._name, stack, self._table, frame, end)

    def close(self):
        return self._gen.close()


def span_genfunc(name: str, fn):
    """Wrap a generator function so each generator it returns is timed.

    The span's own count is resumes; calls are counted separately.
    """
    calls = RECORDER.calls
    calls.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return TimedGen(fn(*args, **kwargs), name)

    wrapper.__perfbench_span__ = name
    return wrapper


#: Which layer a kernel process belongs to, by the file its generator
#: code lives in.  Checked in order; the first match wins.
_PROCESS_LAYERS = (
    ("/repro/apps/", "apps"),
    ("/repro/pfs/client.py", "pfs.client"),
    ("/repro/pfs/datapath.py", "pfs.datapath"),
    ("/repro/pfs/", "pfs.server"),
    ("/repro/machine/", "machine"),
    ("/repro/policies/", "policies"),
    ("/repro/faults/", "faults"),
)


def process_layer(gen) -> str:
    code = getattr(gen, "gi_code", None)
    filename = code.co_filename.replace("\\", "/") if code else ""
    for fragment, layer in _PROCESS_LAYERS:
        if fragment in filename:
            return layer
    return "sim"


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def call(self, owner, attr: str, name: str) -> None:
        self.set(owner, attr, span_call(name, getattr(owner, attr)))

    def methods(self, cls, layer: str, public_only: bool) -> None:
        """Span every function defined on ``cls`` itself."""
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or attr.startswith("__"):
                continue
            if public_only and attr.startswith("_"):
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if inspect.isgeneratorfunction(fn):
                self.set(cls, attr, span_genfunc(name, fn))
            else:
                self.set(cls, attr, span_call(name, fn))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install_simulation(patches: Patches) -> None:
    """Spans for the simulation stack: kernel, processes, PFS, tracer."""
    from repro.experiments import runner
    from repro.pablo.tracer import Tracer
    from repro.pfs import datapath
    from repro.pfs.client import PFSNodeClient
    from repro.sim.engine import Engine

    patches.call(Engine, "run", "sim:Engine.run")
    original_process = Engine.process

    def process(self, generator, name=None):
        if not isinstance(generator, TimedGen):
            layer = process_layer(generator)
            generator = TimedGen(generator, f"{layer}:process")
        return original_process(self, generator, name=name)

    patches.set(Engine, "process", process)
    patches.methods(PFSNodeClient, "pfs.client", public_only=True)
    for cls in (datapath.DataPath, datapath.PlanChain, datapath.FastSpan):
        patches.methods(cls, "pfs.datapath", public_only=False)
    for attr in ("record", "record_fields", "record_columns"):
        patches.call(Tracer, attr, f"pablo.tracer:{attr}")
    patches.call(Tracer, "finish", "pablo.tracer:finish")
    patches.call(runner, "run_escat", "apps:run_escat")
    patches.call(runner, "run_prism", "apps:run_prism")


def install_storage(patches: Patches) -> None:
    """Spans for the runner memo, the run cache and SDDF I/O.

    ``read_sddf``/``write_sddf`` are bound by name at import in the
    modules that use them, so each binding is patched where it is
    looked up.
    """
    from repro.experiments import cache, runner

    patches.call(runner.RunPlan, "fetch_or_run", "runner:fetch_or_run")
    patches.call(runner, "escat_result", "runner:escat_result")
    patches.call(runner, "prism_result", "runner:prism_result")
    patches.call(cache, "fetch_or_run", "runner:cache.fetch_or_run")
    for attr in ("load", "store", "peek"):
        patches.call(cache, attr, f"cache.{attr}:{attr}")
    patches.call(cache, "read_sddf", "pablo.sddf.read:read_sddf")
    patches.call(cache, "write_sddf", "pablo.sddf.write:write_sddf")


def install_tables(patches: Patches) -> None:
    from repro.experiments import escat_tables, prism_tables

    for module, attrs in ((escat_tables, ("table1", "table2")),
                          (prism_tables, ("table4", "table5"))):
        for attr in attrs:
            patches.call(module, attr, f"core:{attr}")


def install_serve(patches: Patches) -> None:
    """Server-side spans (installed in the ``repro serve`` process)."""
    from repro.serve import jobs, server

    patches.call(server._Handler, "do_POST", "serve.http:POST")
    patches.call(server._Handler, "do_GET", "serve.http:GET")
    patches.call(jobs.JobManager, "submit", "serve.jobs:submit")
    patches.call(server, "write_sddf", "pablo.sddf.write:write_sddf")
    patches.call(jobs, "execute_serve_point", "serve.worker:execute")


def dump(path, extra: dict) -> None:
    """Write aggregates and the kept top-level spans to ``path``."""
    payload = dict(extra)
    payload["spans"] = RECORDER.totals()
    payload["calls"] = dict(RECORDER.calls)
    payload["top_spans"] = [
        {"name": n, "start_s": s, "end_s": e, "depth": d}
        for n, s, e, d in RECORDER.kept
    ]
    with open(path, "w") as stream:
        json.dump(payload, stream, indent=1, sort_keys=True)
