"""The discrete-event engine: clock, event queue, and run loop.

Scheduled events live on one binary heap of ``(time, priority,
sequence, event)`` entries.  ``priority`` orders events due at the
same instant (URGENT triggers and process starts before NORMAL
timeouts and absolute-time events, the ``run(until=<time>)`` stopper
after both), and ``sequence`` breaks the remaining ties in insertion
order, so the dispatch order is a pure function of the scheduling
calls.

Time never moves backwards: :meth:`Engine._schedule` (relative
delays) and :meth:`Engine.at` (absolute instants) reject a past time
at the call that asks for it, so a misuse fails at its entry point
instead of rewinding the clock mid-run.
"""

from __future__ import annotations

from heapq import heapify, heappush, heappop
from typing import TYPE_CHECKING, Generator, Iterable, List, Optional, Tuple

from repro.errors import EmptySchedule, SimulationError, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Timeout,
    NORMAL,
)
from repro.sim.process import Process

if TYPE_CHECKING:
    from repro.telemetry.instruments import RunTelemetry

#: Queue entry: (time, priority, sequence, event).  ``sequence`` breaks
#: ties deterministically in insertion order.
_QueueItem = Tuple[float, int, int, Event]

#: Never-equal sentinel for "no timestamp reached yet".
_NAN = float("nan")


class Engine:
    """Event loop and simulated clock.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (seconds).

    Example
    -------
    >>> eng = Engine()
    >>> def hello(eng):
    ...     yield eng.timeout(2.0)
    ...     return "done at %.1f" % eng.now
    >>> p = eng.process(hello(eng))
    >>> eng.run()
    >>> p.value
    'done at 2.0'
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_process", "_probe")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[_QueueItem] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Telemetry probe (repro.telemetry).  When attached, ``run()``
        #: selects an instrumented copy of the dispatch loop; the
        #: default loop carries no telemetry branches at all.
        self._probe = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def at(self, when: float, value: object = None) -> Event:
        """An event that triggers at the *absolute* time ``when``.

        Unlike ``timeout(when - now)``, the event lands exactly at
        ``when`` with no float round-trip through a delay — which is
        what the analytic fast-forward in the PFS data path needs to
        reproduce precomputed completion instants bit-for-bit.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now={self._now})"
            )
        ev = Event(self)
        ev._ok = True
        ev._value = value
        self._eid += 1
        heappush(self._queue, (when, NORMAL, self._eid, ev))
        return ev

    def process(
        self,
        generator: Generator[Event, object, object],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: "Iterable[Event]") -> AllOf:
        """Event triggering when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: "Iterable[Event]") -> AnyOf:
        """Event triggering when any of ``events`` triggers."""
        return AnyOf(self, events)

    # -- scheduling (internal API used by events) --------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def attach_probe(self, probe: object) -> None:
        """Attach a telemetry probe (see :mod:`repro.telemetry`).

        The probe receives ``on_advance(now)`` once per distinct
        timestamp and per-event counter bumps, and must only *read*
        simulator state: the instrumented loop dispatches the exact
        same events in the exact same order as the default one.
        """
        self._probe = probe

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it."""
        try:
            when, _prio, _eid, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events remain") from None
        self._now = when

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            _crash(event)

    def run(self, until: object = None) -> object:
        """Run until the queue drains, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            a number — run until the clock reaches that time.
            an :class:`Event` — run until that event is processed and
            return its value.
        """
        stop_event: Optional[Event] = None
        stopper: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed.
                    return stop_event.value
                stop_event.callbacks.append(self._stop_on_event)
            else:
                at = float(until)
                if at < self._now:
                    raise SimulationError(
                        f"until={at} is in the past (now={self._now})"
                    )
                stopper = Event(self)
                stopper._ok = True
                stopper._value = None
                stopper.callbacks.append(self._stop_on_event)
                # Priority below NORMAL so same-time events run first.
                self._eid += 1
                heappush(self._queue, (at, NORMAL + 1, self._eid, stopper))

        try:
            probe = self._probe
            if probe is None:
                self._run_loop()
            else:
                self._run_instrumented(probe)
        except StopSimulation as stop:
            return stop.value
        finally:
            if stopper is not None and stopper.callbacks is not None:
                # The run ended some other way (another event raised
                # StopSimulation, or the queue drained early): remove the
                # pending stopper so it can't pollute ``peek()`` or a
                # later ``run()``.
                queue = self._queue
                queue[:] = [item for item in queue if item[3] is not stopper]
                heapify(queue)
                stopper.callbacks = None

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) finished but the event never triggered"
                )
            return stop_event.value
        return None

    def _run_loop(self) -> None:
        """Dispatch events in heap order until the queue drains.

        :meth:`step` inlined: the loop runs once per event, hundreds
        of thousands of times per paper-scale run.
        """
        queue = self._queue
        while queue:
            when, _prio, _eid, event = heappop(queue)
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
            if callbacks is None:
                raise SimulationError(f"{event!r} processed twice")
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                _crash(event)

    def _run_instrumented(self, probe: "RunTelemetry") -> None:
        """:meth:`_run_loop` with telemetry counting and sim-time hooks.

        A copy of the plain loop plus probe bookkeeping, selected once
        per ``run()`` so the plain loop pays nothing.  ``on_advance(t)``
        fires after the last event at ``t``: when the head of the queue
        moves to a later time, or the queue drains.  The probe only
        reads state, so dispatch order and timing are identical.
        """
        queue = self._queue
        last = _NAN
        while queue:
            when, _prio, _eid, event = queue[0]
            if when != last:
                if last == last:  # not the NAN sentinel
                    probe.on_advance(last)
                probe.timestamps += 1
                last = when
            heappop(queue)
            probe.events += 1
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
            if callbacks is None:
                raise SimulationError(f"{event!r} processed twice")
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                _crash(event)
        if last == last:
            probe.on_advance(last)

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        if not event._ok and isinstance(event._value, BaseException):
            # run(until=event) surfaces the failure to the caller.
            event._defused = True
            raise event._value
        raise StopSimulation(event._value)

    def __repr__(self) -> str:
        return f"<Engine t={self._now:.6f} queued={len(self._queue)}>"


def _crash(event: Event) -> None:
    """Raise an unhandled event failure, crashing the simulation the way
    an uncaught exception ends a thread."""
    exc = event._value
    if isinstance(exc, BaseException):
        raise exc
    raise SimulationError(f"event failed with non-exception {exc!r}")
