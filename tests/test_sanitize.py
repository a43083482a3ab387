"""REPRO_SANITIZE invariant-sanitizer tests.

The contract under test: with sanitization off (the default) the hot
layers carry no checks and silently execute even deliberately
corrupted state; with it on, the same corruption fails loudly at the
offending call with :class:`SanitizeError` — and clean runs stay
byte-identical either way.
"""

import io
from types import SimpleNamespace

import pytest

from repro import sanitize
from repro.apps import run_escat, scaled_escat_problem
from repro.errors import SanitizeError
from repro.pablo.sddf import write_sddf
from repro.pfs import datapath
from repro.pfs.buffering import (
    ReadBuffer,
    SanitizedReadBuffer,
    make_read_buffer,
)
from repro.pfs.datapath import (
    FastSpan,
    PlanChain,
    SanitizedFastSpan,
    SanitizedPlanChain,
    _E_SEND,
    _INF,
)
from repro.pfs.file import Extent
from repro.sim import Engine


@pytest.fixture
def sanitized():
    sanitize.set_enabled(True)
    yield
    sanitize.set_enabled(None)


@pytest.fixture
def batched_datapath(monkeypatch):
    # PlanChain and FastSpan exist only on the batched datapath; pin it
    # so these cells hold in the REPRO_FAST_DATAPATH=0 CI cell too.
    monkeypatch.setenv("REPRO_FAST_DATAPATH", "1")


@pytest.fixture
def unsanitized():
    # Pin sanitize *off* so the "silent by default" tests hold even
    # when the whole suite runs under REPRO_SANITIZE=1 (the CI cell).
    sanitize.set_enabled(False)
    yield
    sanitize.set_enabled(None)


def test_flag_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert sanitize.enabled() is False  # default off
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize.enabled() is True
    sanitize.set_enabled(False)
    try:
        assert sanitize.enabled() is False  # override beats environ
    finally:
        sanitize.set_enabled(None)


# ---------------------------------------------------------------------
# PlanChain: deliberate ordering bug
# ---------------------------------------------------------------------

def _corrupted_chain(cls):
    """A minimal chain whose unapplied tail is out of timestamp order
    while ``dirty`` claims it is sorted — the exact state a broken
    effect-emission path would leave behind."""
    chain = cls.__new__(cls)
    chain.dp = SimpleNamespace(
        net=SimpleNamespace(messages=0, bytes_moved=0)
    )
    chain.server = SimpleNamespace(
        ionode=SimpleNamespace(index=0, disk=None), plan=None
    )
    chain.env = None
    chain.spans = []
    chain.effects = [(2.0, _E_SEND, 1, 10), (1.0, _E_SEND, 1, 10)]
    chain.cursor = 0
    chain.dirty = False  # the bug: tail unsorted but not flagged
    chain.next_due = 1.0
    chain.const = (0.0,) * 6
    chain.ch_free = -1.0
    chain.ch_arrival = -1.0
    chain.cpu_free = -1.0
    chain.cpu_arrival = -1.0
    chain.next_off = None
    if cls is SanitizedPlanChain:
        chain._san_last = -_INF
    return chain


def test_planchain_ordering_bug_silent_by_default(unsanitized):
    chain = _corrupted_chain(PlanChain)
    chain.apply_until(3.0)  # applies out of order without complaint
    assert chain.cursor == 2
    assert chain.dp.net.messages == 2


def test_planchain_ordering_bug_caught_when_sanitized():
    chain = _corrupted_chain(SanitizedPlanChain)
    with pytest.raises(SanitizeError, match="out of order"):
        chain.apply_until(3.0)


def test_planchain_stale_next_due_caught():
    chain = _corrupted_chain(SanitizedPlanChain)
    chain.effects.sort(key=lambda e: e[0])
    chain.next_due = 5.0  # stale-high: both effects are already due
    with pytest.raises(SanitizeError, match="stale-high"):
        chain.apply_until(3.0)


def test_planchain_injected_bug_end_to_end(
    sanitized, batched_datapath, monkeypatch
):
    # Corrupt every chain the datapath plans: reverse the unapplied
    # tail and clear the dirty flag as each span lands.
    orig_add = PlanChain.add

    def corrupting_add(self, span):
        tail = self.effects[self.cursor:]
        if len(tail) >= 2:
            self.effects[self.cursor:] = tail[::-1]
            self.dirty = False
        orig_add(self, span)

    monkeypatch.setattr(PlanChain, "add", corrupting_add)
    with pytest.raises(SanitizeError):
        run_escat("B", scaled_escat_problem(8))


def test_planchain_injected_bug_silent_without_sanitize(
    unsanitized, batched_datapath, monkeypatch
):
    orig_add = PlanChain.add

    def corrupting_add(self, span):
        tail = self.effects[self.cursor:]
        if len(tail) >= 2:
            self.effects[self.cursor:] = tail[::-1]
            self.dirty = False
        orig_add(self, span)

    monkeypatch.setattr(PlanChain, "add", corrupting_add)
    result = run_escat("B", scaled_escat_problem(8))  # no crash
    assert result.wall_time > 0


# ---------------------------------------------------------------------
# FastSpan: planned completion instant
# ---------------------------------------------------------------------

def _run_misplanned(monkeypatch, corrupt):
    """A sanitized ESCAT-B run whose span planner records a corrupted
    timeline: ``corrupt(span)`` runs as soon as each span is priced,
    before the sanitized checks see it."""
    orig_init = FastSpan.__init__

    def misplanning_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        # Every span records its planned completion instant; a
        # sentinel here would silently switch both checks off.
        assert self.t0 <= self.t_done
        corrupt(self)

    monkeypatch.setattr(FastSpan, "__init__", misplanning_init)
    run_escat("B", scaled_escat_problem(8))


def test_fastspan_completion_before_arrival_caught(
    sanitized, batched_datapath, monkeypatch
):
    def completion_before_arrival(span):
        span.t_done = span.t0 - 1.0

    with pytest.raises(SanitizeError, match="precedes its request arrival"):
        _run_misplanned(monkeypatch, completion_before_arrival)


def test_fastspan_completion_off_plan_caught(
    sanitized, batched_datapath, monkeypatch
):
    # The trigger still fires at the priced instant, so every span that
    # completes naturally now finishes away from its recorded plan.
    def completion_recorded_late(span):
        span.t_done += 1.0

    with pytest.raises(SanitizeError, match="was planned for"):
        _run_misplanned(monkeypatch, completion_recorded_late)


# ---------------------------------------------------------------------
# Engine: ordering is an entry check in ``at`` / ``_schedule``
# (tests/test_sim_engine.py); sanitized runs stay clean
# ---------------------------------------------------------------------

def test_sanitized_engine_runs_clean_sim(sanitized):
    env = Engine()

    def proc(env):
        for _ in range(100):
            yield env.timeout(0.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 50.0


# ---------------------------------------------------------------------
# ReadBuffer generation tripwire
# ---------------------------------------------------------------------

def _buffer(cls=None):
    state = SimpleNamespace(path="/f", size=0, _next_token=0)
    if cls is None:
        buf = make_read_buffer(state, 4096)
    else:
        buf = cls(state, 4096)
    buf.install(0, 100, [Extent(0, 100, 0)])
    return state, buf


def test_make_read_buffer_selects_by_flag(sanitized):
    _, buf = _buffer()
    assert type(buf) is SanitizedReadBuffer
    sanitize.set_enabled(False)
    _, buf = _buffer()
    assert type(buf) is ReadBuffer


def test_buffer_serves_covered_reads_when_sanitized():
    _, buf = _buffer(SanitizedReadBuffer)
    extents = buf.serve(10, 20)
    assert extents and extents[0].start == 10 and extents[0].end == 30


def test_buffer_stale_generation_caught():
    state, buf = _buffer(SanitizedReadBuffer)
    state._next_token = 1  # an intervening write bumped the generation
    with pytest.raises(SanitizeError, match="stale"):
        buf.serve(10, 20)


def test_buffer_uncovered_range_caught():
    _, buf = _buffer(SanitizedReadBuffer)
    with pytest.raises(SanitizeError, match="outside buffered"):
        buf.serve(90, 20)


def test_buffer_stale_generation_silent_by_default(unsanitized):
    state, buf = _buffer(ReadBuffer)
    state._next_token = 1
    assert buf.serve(10, 20)  # happily serves stale bytes


# ---------------------------------------------------------------------
# Byte identity + class selection
# ---------------------------------------------------------------------

def _sddf():
    result = run_escat("B", scaled_escat_problem(4))
    buf = io.StringIO()
    write_sddf(result.trace, buf)
    return buf.getvalue()


def test_sanitized_run_is_byte_identical():
    sanitize.set_enabled(False)
    try:
        base = _sddf()
        sanitize.set_enabled(True)
        assert _sddf() == base
    finally:
        sanitize.set_enabled(None)


def _datapath():
    costs = SimpleNamespace(
        client_overhead=0.0, cache_hit_service=0.0,
        write_ack_service=0.0, cache_copy_rate=1.0,
    )
    network = SimpleNamespace(config=SimpleNamespace(bandwidth=1.0))
    pfs = SimpleNamespace(
        env=None, costs=costs, machine=SimpleNamespace(network=network)
    )
    return datapath.DataPath(pfs)


def test_datapath_selects_sanitized_classes(sanitized):
    dp = _datapath()
    assert dp._chain_cls is SanitizedPlanChain
    assert dp._span_cls is SanitizedFastSpan
    sanitize.set_enabled(False)
    dp = _datapath()
    assert dp._chain_cls is PlanChain
    assert dp._span_cls is FastSpan
