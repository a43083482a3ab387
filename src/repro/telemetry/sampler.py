"""Sim-time sampling: engine probe and periodic time-series sampler.

The sampler is driven by the engine itself, not by injected events: a
probe attached to the :class:`~repro.sim.engine.Engine` gets an
``on_advance(now)`` call each time the clock reaches a new distinct
timestamp.  The engine's run loop carries one ``probe is not None``
branch per event, and the probe only reads state, so the event
schedule (and hence SDDF output) is byte-identical with telemetry on
or off.  Injecting sampling events instead would both
perturb event ordering and keep a run-to-exhaustion simulation alive
forever; the hook sidesteps both problems.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

#: Default sampling resolution in simulated seconds.
DEFAULT_RESOLUTION = 1.0


class SimTimeSampler:
    """Record value time series on a fixed simulated-time grid.

    Sources are registered as ``(name, callable)`` pairs; every time
    the clock crosses the next grid point, each callable is read once
    and appended to its series.  All series share one time axis.
    """

    __slots__ = ("resolution", "times", "_series", "_sources", "_next_t")

    def __init__(self, resolution: float = DEFAULT_RESOLUTION) -> None:
        if resolution <= 0:
            raise ValueError(f"resolution must be > 0: {resolution}")
        self.resolution = float(resolution)
        self.times: List[float] = []
        self._series: Dict[str, List[float]] = {}
        self._sources: List[Tuple[str, Callable[[], float]]] = []
        self._next_t = 0.0

    def add_source(self, name: str, fn: Callable[[], float]) -> None:
        if name in self._series:
            raise ValueError(f"duplicate sampler source {name!r}")
        self._series[name] = []
        self._sources.append((name, fn))

    def on_advance(self, now: float) -> None:
        """Engine hook: called once per distinct timestamp reached."""
        if now < self._next_t:
            return
        # One sample per crossed grid point would replay identical
        # values through idle gaps; sample once and jump the grid.
        self.times.append(now)
        for name, fn in self._sources:
            self._series[name].append(float(fn()))
        step = self.resolution
        self._next_t = (now // step + 1.0) * step

    def series(self) -> Dict[str, List[float]]:
        """All recorded series keyed by source name."""
        return dict(self._series)

    def as_dict(self) -> dict:
        """JSON-able export: shared time axis plus every series."""
        return {
            "resolution": self.resolution,
            "times": list(self.times),
            "series": {k: list(v) for k, v in self._series.items()},
        }


class EngineProbe:
    """Counters fed by the engine's run loop.

    ``events`` counts dispatched events, ``timestamps`` counts distinct
    clock values — their ratio is the mean number of events dispatched
    per simulated instant.  ``on_advance`` forwards to the
    sampler.  The probe holds plain ints; the run loop updates them
    with attribute adds, no method-call overhead per event.
    """

    __slots__ = ("events", "timestamps", "sampler")

    def __init__(self, sampler: SimTimeSampler) -> None:
        self.events = 0
        self.timestamps = 0
        self.sampler = sampler

    def on_advance(self, now: float) -> None:
        self.sampler.on_advance(now)
