"""Unit tests for the DES engine, events and processes."""

import pytest

from repro.errors import EmptySchedule, SimulationError
from repro.sim import Engine, Interrupt


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_clock_custom_start():
    eng = Engine(initial_time=100.0)
    assert eng.now == 100.0


def test_timeout_advances_clock():
    eng = Engine()
    times = []

    def proc(eng):
        yield eng.timeout(2.5)
        times.append(eng.now)

    eng.process(proc(eng))
    eng.run()
    assert times == [2.5]


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.timeout(-1.0)


def test_timeout_value_delivered():
    eng = Engine()
    got = []

    def proc(eng):
        v = yield eng.timeout(1.0, value="payload")
        got.append(v)

    eng.process(proc(eng))
    eng.run()
    assert got == ["payload"]


def test_sequential_timeouts_accumulate():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(1.0)
        yield eng.timeout(2.0)
        yield eng.timeout(3.0)

    p = eng.process(proc(eng))
    eng.run()
    assert eng.now == 6.0
    assert p.processed


def test_concurrent_processes_interleave():
    eng = Engine()
    order = []

    def proc(eng, name, delay):
        yield eng.timeout(delay)
        order.append((name, eng.now))

    eng.process(proc(eng, "slow", 5.0))
    eng.process(proc(eng, "fast", 1.0))
    eng.run()
    assert order == [("fast", 1.0), ("slow", 5.0)]


def test_same_time_events_fifo_order():
    eng = Engine()
    order = []

    def proc(eng, name):
        yield eng.timeout(1.0)
        order.append(name)

    for name in "abc":
        eng.process(proc(eng, name))
    eng.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock():
    eng = Engine()

    def ticker(eng):
        while True:
            yield eng.timeout(1.0)

    eng.process(ticker(eng))
    eng.run(until=10.0)
    assert eng.now == 10.0


def test_run_until_past_time_rejected():
    eng = Engine(initial_time=50.0)
    with pytest.raises(SimulationError):
        eng.run(until=10.0)


def test_run_until_event_returns_value():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(3.0)
        return "result"

    p = eng.process(proc(eng))
    assert eng.run(until=p) == "result"
    assert eng.now == 3.0


def test_run_until_already_processed_event():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(1.0)
        return 7

    p = eng.process(proc(eng))
    eng.run()
    assert eng.run(until=p) == 7


def test_step_on_empty_schedule_raises():
    eng = Engine()
    with pytest.raises(EmptySchedule):
        eng.step()


def test_process_waits_on_process():
    eng = Engine()
    log = []

    def child(eng):
        yield eng.timeout(2.0)
        return "child-value"

    def parent(eng):
        value = yield eng.process(child(eng))
        log.append((value, eng.now))

    eng.process(parent(eng))
    eng.run()
    assert log == [("child-value", 2.0)]


def test_event_succeed_delivers_value():
    eng = Engine()
    ev = eng.event()
    got = []

    def waiter(eng, ev):
        got.append((yield ev))

    def firer(eng, ev):
        yield eng.timeout(1.0)
        ev.succeed(123)

    eng.process(waiter(eng, ev))
    eng.process(firer(eng, ev))
    eng.run()
    assert got == [123]


def test_event_double_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    eng = Engine()
    ev = eng.event()
    caught = []

    def waiter(eng, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer(eng, ev):
        yield eng.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    eng.process(waiter(eng, ev))
    eng.process(firer(eng, ev))
    eng.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_crashes_run():
    eng = Engine()

    def bad(eng):
        yield eng.timeout(1.0)
        raise ValueError("unhandled")

    eng.process(bad(eng))
    with pytest.raises(ValueError, match="unhandled"):
        eng.run()


def test_fail_with_non_exception_rejected():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_yield_non_event_is_error():
    eng = Engine()

    def bad(eng):
        yield 42

    eng.process(bad(eng))
    with pytest.raises(SimulationError):
        eng.run()


def test_all_of_waits_for_all():
    eng = Engine()
    done = []

    def proc(eng):
        t1 = eng.timeout(1.0, value="a")
        t2 = eng.timeout(5.0, value="b")
        result = yield eng.all_of([t1, t2])
        done.append((eng.now, [result[t1], result[t2]]))

    eng.process(proc(eng))
    eng.run()
    assert done == [(5.0, ["a", "b"])]


def test_any_of_fires_on_first():
    eng = Engine()
    done = []

    def proc(eng):
        t1 = eng.timeout(1.0, value="fast")
        t2 = eng.timeout(5.0, value="slow")
        result = yield eng.any_of([t1, t2])
        done.append((eng.now, t1 in result, t2 in result))

    eng.process(proc(eng))
    eng.run()
    assert done == [(1.0, True, False)]


def test_and_or_operators():
    eng = Engine()
    t_all = []

    def proc(eng):
        yield eng.timeout(1.0) & eng.timeout(2.0)
        t_all.append(eng.now)
        yield eng.timeout(1.0) | eng.timeout(10.0)
        t_all.append(eng.now)

    eng.process(proc(eng))
    eng.run(until=5.0)
    assert t_all == [2.0, 3.0]


def test_all_of_empty_triggers_immediately():
    eng = Engine()
    done = []

    def proc(eng):
        yield eng.all_of([])
        done.append(eng.now)

    eng.process(proc(eng))
    eng.run()
    assert done == [0.0]


def test_interrupt_wakes_waiting_process():
    eng = Engine()
    log = []

    def sleeper(eng):
        try:
            yield eng.timeout(100.0)
        except Interrupt as intr:
            log.append((eng.now, intr.cause))

    def interrupter(eng, victim):
        yield eng.timeout(2.0)
        victim.interrupt("wake up")

    victim = eng.process(sleeper(eng))
    eng.process(interrupter(eng, victim))
    eng.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_finished_process_raises():
    eng = Engine()

    def quick(eng):
        yield eng.timeout(1.0)

    p = eng.process(quick(eng))
    eng.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_process_return_value():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(1.0)
        return {"answer": 42}

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == {"answer": 42}
    assert p.ok


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_at_dispatches_at_exact_instant():
    eng = Engine()
    seen = []

    def proc(eng):
        yield eng.timeout(0.1)
        value = yield eng.at(0.30000000000000004, value="v")
        seen.append((eng.now, value))
        yield eng.at(eng.now)  # the current instant is not the past
        seen.append((eng.now, None))

    eng.process(proc(eng))
    eng.run()
    assert seen == [(0.30000000000000004, "v"), (0.30000000000000004, None)]


def test_at_in_the_past_raises_at_the_call():
    eng = Engine()
    eng.run(until=10.0)
    with pytest.raises(SimulationError, match="cannot schedule at 5.0"):
        eng.at(5.0)
    with pytest.raises(SimulationError, match="in the past"):
        eng._schedule(eng.event(), 1, delay=-1e-9)
    assert eng.peek() == float("inf")  # nothing was queued

    # Mid-run, the offending call raises in the process that made it.
    caught = []

    def proc(eng):
        yield eng.timeout(1.0)
        try:
            eng.at(eng.now - 5.0)
        except SimulationError:
            caught.append(eng.now)

    eng.process(proc(eng))
    eng.run()
    assert caught == [11.0]
    assert eng.now == 11.0  # the clock never moved backwards


def test_peek_returns_next_event_time():
    eng = Engine()
    eng.timeout(7.0)
    assert eng.peek() == 7.0


def test_peek_empty_is_inf():
    eng = Engine()
    assert eng.peek() == float("inf")


def test_event_value_before_trigger_raises():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_many_processes_deterministic():
    """Two identical runs produce identical completion orders."""

    def run_once():
        eng = Engine()
        order = []

        def proc(eng, i):
            yield eng.timeout((i * 7919) % 13 + 0.1)
            order.append(i)

        for i in range(50):
            eng.process(proc(eng, i))
        eng.run()
        return order

    assert run_once() == run_once()
