"""Generator-based simulation processes."""

from __future__ import annotations

import typing

from repro.simulator.events import PROCESSED, Event, ProcessCrash

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulator

__all__ = ["Process", "ProcessCrash"]


class Process(Event):
    """A coroutine driven by the simulator.

    A process wraps a generator that yields :class:`Event` instances.  When
    a yielded event triggers, the generator is resumed with the event's
    value (or the event's exception is thrown into it).  The process is
    itself an event: it triggers with the generator's return value when the
    generator finishes, so processes can wait on each other.
    """

    def __init__(self, sim: "Simulator", generator: typing.Generator, name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._target: Event | None = None
        # Kick off the generator through the event queue.  Starting it
        # synchronously here would be cheaper, but the one-step deferral
        # is observable: it decides same-time ordering of resource
        # requests, and with it arm hand-off and positioning charges.
        # Device fan-outs that start their ops without a process keep the
        # same hop (one kernel hop for all their ops) for that reason.
        sim._schedule(self._resume, None)

    def _resume(self, event: Event | None) -> None:
        """Advance the generator with the outcome of ``event`` (None: start it)."""
        while True:
            try:
                if event is None:
                    target = self._gen.send(None)
                elif event._exception is None:
                    target = self._gen.send(event._value)
                else:
                    event.defused = True
                    target = self._gen.throw(event._exception)
            except StopIteration as stop:
                self._target = None
                self.succeed(stop.value)
                break
            except BaseException as exc:
                self._target = None
                self.fail(exc)
                break

            if not isinstance(target, Event):
                crash = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                self._target = None
                try:
                    self._gen.throw(crash)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as exc:
                    self.fail(exc)
                break
            if target.sim is not self.sim:
                raise ValueError("yielded event belongs to a different simulator")

            if target._state == PROCESSED:
                # Already resolved: loop immediately without rescheduling.
                event = target
                continue
            self._target = target
            target.callbacks.append(self._resume)
            break
