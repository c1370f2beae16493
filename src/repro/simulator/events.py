"""Event primitives for the discrete-event simulation kernel."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.engine import Simulator

_INF = float("inf")


class ProcessCrash(RuntimeError):
    """Raised by the simulator when a process dies on an unhandled error."""


#: Event lifecycle states.  Kernel code tests ``_state`` directly (any
#: non-zero state is triggered) rather than through the properties.
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
        if self._state:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self._state = TRIGGERED
        self.sim._schedule(Event._fire, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._state:
            raise RuntimeError(f"{self!r} already triggered")
        self._exception = exception
        self._state = TRIGGERED
        self.sim._schedule(Event._fire, self)
        return self

    def _fire(self) -> None:
        """Run the callbacks of a triggered event: its heap entry's step.

        A failure that no waiter defused crashes the run.
        """
        callbacks, self.callbacks = self.callbacks, []
        self._state = PROCESSED
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self.defused:
            raise ProcessCrash(
                f"unhandled failure in simulation: {self._exception!r}"
            ) from self._exception

    def _succeed_now(self, value=None) -> None:
        """Trigger and process synchronously, skipping the event queue.

        Only for completions that are already being dispatched at their
        correct simulation time (e.g. a transfer-done event inside its
        completion timer's callback); the waiters run immediately instead
        of after one more queue round-trip.
        """
        if self._state:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        callbacks, self.callbacks = self.callbacks, []
        self._state = PROCESSED
        for callback in callbacks:
            callback(self)

    def _fail_now(self, exception: BaseException) -> None:
        """:meth:`_succeed_now` for a failure, which the waiters handle."""
        if self._state:
            raise RuntimeError(f"{self!r} already triggered")
        self._exception = exception
        self._succeed_now()

    def _settle(self, failure: BaseException | None) -> None:
        """:meth:`_succeed_now` with None, or :meth:`_fail_now` with ``failure``.

        The shape of a device op's ``done`` callback, so an op can settle
        an event its waiter yields.
        """
        if failure is None:
            self._succeed_now()
        else:
            self._fail_now(failure)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {states[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    def __init__(self, sim: "Simulator", delay: float, value=None):
        # A NaN time compares false with every other, so one in the heap
        # would silently cut the run short: refuse it here.
        if not 0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and non-negative, got {delay}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self._state = TRIGGERED
        sim._schedule(Event._fire, self, delay)


class AllOf(Event):
    """Triggers when every child event has triggered successfully.

    Fails as soon as any child fails.  Its value is a dict mapping each
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
            if event._state == PROCESSED:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._state:
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event.exception)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed({child: child._value for child in self.events})
