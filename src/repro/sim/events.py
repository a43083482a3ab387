"""Primitive events for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence.  Processes wait on events by
``yield``-ing them; the engine resumes the process when the event is
*processed* (its callbacks run).  Events carry a value (delivered as the
result of the ``yield``) or an exception (raised inside the process).

The lifecycle is ``PENDING -> TRIGGERED -> PROCESSED``: *triggered*
means scheduled on the engine's queue with a value; *processed* means
callbacks have run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

#: Sentinel for "no value yet".
_PENDING = object()

#: Scheduling priorities: urgent events (process resumptions) run before
#: normal events scheduled at the same instant.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence processes can wait for.

    Parameters
    ----------
    env:
        The owning :class:`~repro.sim.engine.Engine`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Engine") -> None:
        self.env = env
        #: Callbacks run when the event is processed.  ``None`` once
        #: processed (guards double-processing).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: object = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or exception if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, URGENT)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is raised in every waiting process.  If no process
        is waiting when the failure is processed, the engine re-raises
        it (crash) unless :meth:`defused` was set.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, URGENT)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event.

        Used as a callback to chain events together.
        """
        if self.triggered:
            return
        self._ok = event._ok
        self._value = event._value
        self.env._schedule(self, URGENT)

    def defuse(self) -> None:
        """Mark a failure as handled so the engine won't crash on it."""
        self._defused = True

    # -- composition ---------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Engine", delay: float, value: object = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Initialize(Event):
    """Internal event that starts a :class:`~repro.sim.process.Process`."""

    __slots__ = ()

    def __init__(self, env: "Engine") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class ConditionValue:
    """Ordered mapping of event -> value for triggered condition members.

    Iterating yields the member events in their original order; indexing
    with an event returns its value.
    """

    __slots__ = ("events",)

    def __init__(self, events: List[Event]) -> None:
        self.events = events

    def __getitem__(self, event: Event) -> object:
        if event not in self.events:
            raise KeyError(repr(event))
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __iter__(self) -> "Iterator[Event]":
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        return NotImplemented

    def todict(self) -> dict:
        return {e: e.value for e in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a predicate over a fixed set of member events.

    Fails as soon as any member fails.  On success its value is a
    :class:`ConditionValue` of the members triggered so far.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Engine",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate

        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different engines mixed")

        if not self._events or self._evaluate(self._events, 0):
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)  # type: ignore[arg-type]
        elif self._evaluate(self._events, self._count):
            self.succeed(ConditionValue([e for e in self._events if e.processed]))


class AllOf(Condition):
    """Triggered when every member event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Engine", events: Iterable[Event]) -> None:
        super().__init__(env, lambda evs, n: n >= len(evs), events)


class AnyOf(Condition):
    """Triggered as soon as any member event triggers."""

    __slots__ = ()

    def __init__(self, env: "Engine", events: Iterable[Event]) -> None:
        super().__init__(env, lambda evs, n: n > 0 or not evs, events)
