"""The simulation engine: virtual clock and a heap of events and callbacks."""

from __future__ import annotations

import typing
from heapq import heappop, heappush

from repro.simulator.events import PROCESSED, AllOf, Event, Timeout
from repro.simulator.process import Process

_INF = float("inf")


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class Simulator:
    """Drives the virtual clock and dispatches triggered events.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event triggering ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator, name: str | None = None) -> Process:
        """Spawn a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def defer(self, fn: typing.Callable[[typing.Any], None], arg=None, delay: float = 0.0) -> None:
        """Call ``fn(arg)`` ``delay`` time units from now, with no event.

        With no delay that is one queue hop from now, where a new process
        takes its first step, so work started this way issues its
        requests exactly where a process would have.  Device models use
        the delay form for their internal timers: nothing waits on them,
        so they need no :class:`Event`.

        The kernel and the device models make their own zero-delay hops
        through :meth:`_schedule`, where the delay check is vacuous.
        """
        if not 0 <= delay < _INF:
            raise ValueError(f"defer delay must be finite and non-negative, got {delay}")
        self._schedule(fn, arg, delay)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, fn: typing.Callable[[typing.Any], None], arg, delay: float = 0.0) -> None:
        """Push ``fn(arg)`` at ``delay`` from now: the kernel's one push.

        A triggered event is pushed as ``Event._fire`` on itself, a plain
        callback as itself, so both share one ``seq`` counter and entries
        for the same instant run in push order.
        """
        self._seq += 1
        heappush(self._queue, (self._now + delay, self._seq, fn, arg))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Run the single next heap entry: an event's callbacks, or a callback."""
        if not self._queue:
            raise EmptySchedule()
        self._now, _seq, fn, arg = heappop(self._queue)
        fn(arg)

    def run(self, until: float | Event | None = None):
        """Run until the queue drains, time ``until`` passes, or an event fires.

        Returns the event's value when ``until`` is an event.  The loops
        take heap entries exactly as :meth:`step` does, inline: the loop
        is the kernel's hottest code, and a call per entry is most of it.
        """
        queue = self._queue
        if isinstance(until, Event):
            stop = until
            while stop._state != PROCESSED:
                if not queue:
                    raise RuntimeError(
                        "simulation ran out of events before the awaited "
                        f"event triggered: {stop!r}"
                    )
                self._now, _seq, fn, arg = heappop(queue)
                fn(arg)
            return stop.value
        horizon = float("inf") if until is None else float(until)
        if horizon != horizon:
            raise ValueError("cannot run until NaN")
        if horizon != float("inf") and horizon < self._now:
            raise ValueError(f"cannot run until {horizon} < now {self._now}")
        while queue and queue[0][0] <= horizon:
            self._now, _seq, fn, arg = heappop(queue)
            fn(arg)
        if horizon != float("inf"):
            self._now = horizon
        return None
