"""Event primitives for the discrete-event simulation kernel."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.engine import Simulator

#: Event lifecycle states.
PENDING = 0
TRIGGERED = 1
PROCESSED = 2


class Event:
    """A single occurrence on the simulation timeline.

    Events start *pending*, become *triggered* once given a value (or an
    exception) and *processed* after the simulator has run their callbacks.
    Processes wait on events by ``yield``-ing them.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list = []
        self._value: object = None
        self._exception: BaseException | None = None
        self._state = PENDING
        #: Set by a waiter that handles failure itself; prevents the kernel
        #: from escalating an unhandled failed event to a crash.
        self.defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self):
        """The event's value; raises if the event failed or is pending."""
        if not self.triggered:
            raise RuntimeError(f"{self!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or None."""
        return self._exception

    # -- triggering ---------------------------------------------------------

    def succeed(self, value=None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self._state = TRIGGERED
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._exception = exception
        self._state = TRIGGERED
        self.sim._schedule(self)
        return self

    def _succeed_now(self, value=None) -> None:
        """Trigger and process synchronously, skipping the event queue.

        Only for completions that are already being dispatched at their
        correct simulation time (e.g. a transfer-done event inside its
        completion timer's callback); the waiters run immediately instead
        of after one more queue round-trip.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        callbacks, self.callbacks = self.callbacks, []
        self._state = PROCESSED
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {states[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    def __init__(self, sim: "Simulator", delay: float, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self._state = TRIGGERED
        sim._schedule(self, delay=delay)


class Condition(Event):
    """Base for composite events over a fixed set of child events.

    The condition triggers when :meth:`_satisfied` first holds, or fails as
    soon as any child fails.  Its value is a dict mapping each *triggered*
    child event to that child's value (insertion-ordered).
    """

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._done = 0
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same simulator")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.exception)
            return
        self._done += 1
        if self._satisfied():
            # Only children that have actually fired contribute a value
            # (a pending Timeout is "triggered" from birth but has not
            # happened yet).
            self.succeed(
                {child: child._value for child in self.events if child.ok and child.processed}
            )


class AllOf(Condition):
    """Triggers when every child event has triggered successfully."""

    def _satisfied(self) -> bool:
        return self._done == len(self.events)
