"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each ``yield``-ed
:class:`~repro.sim.events.Event` suspends the process until that event
is processed, at which point the event's value is sent back into the
generator (or its exception thrown).  A Process is itself an Event that
triggers when the generator returns, so processes can wait on each
other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, Initialize

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> object:
        return self.args[0]


class Process(Event):
    """Wraps a generator as a schedulable process.

    Parameters
    ----------
    env:
        Owning engine.
    generator:
        A generator yielding :class:`Event` instances.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("_generator", "_send", "_throw", "_target", "name")

    def __init__(
        self,
        env: "Engine",
        generator: Generator[Event, object, object],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {generator!r}"
            )
        super().__init__(env)
        self._generator = generator
        # Bound once: the trampoline resumes this generator hundreds of
        # thousands of times per run, and a per-resume method lookup on
        # the generator object is pure overhead.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None when
        #: running or finished).
        self._target: Optional[Event] = Initialize(env)
        self._target.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target and instead
        handles (or dies from) the interrupt.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self._target is None:
            raise SimulationError(f"{self!r} cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        # Stop listening to the old target, resume from the interrupt.
        target = self._target
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        interrupt_event.callbacks = [self._resume]
        self.env._schedule(interrupt_event, 0)

    # -- engine callback -------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        send = self._send
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = self._throw(event._value)
            except StopIteration as exc:
                self._target = None
                env._active_process = None
                self.succeed(exc.value)
                return
            except BaseException as exc:
                self._target = None
                env._active_process = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                self._target = None
                env._active_process = None
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                try:
                    self._generator.throw(error)
                except StopIteration as exc:
                    self.succeed(exc.value)
                    return
                except BaseException as exc:
                    self.fail(exc)
                    return
                # Generator swallowed the error and yielded again: treat
                # as a programming error.
                self.fail(error)
                return

            if next_event.callbacks is not None:
                # Not yet processed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: loop immediately with its outcome.
            event = next_event

        env._active_process = None

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
