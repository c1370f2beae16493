"""The one device operation shared by disks and tape drives.

The paper's system model (Section 3) charges every device request the
same way: position the device, then stream the blocks over a shared SCSI
bus.  :class:`Device` owns that sequence; :class:`~repro.storage.disk.Disk`
and :class:`~repro.storage.tape.TapeDrive` only supply their positioning
rule.
"""

from __future__ import annotations

import typing

from repro.simulator.engine import Simulator
from repro.simulator.events import Event
from repro.simulator.resources import Unit
from repro.storage.block import BlockSpec
from repro.storage.bus import Bus


class Device:
    """One bus-attached device: a single unit serving one request at a time."""

    def __init__(self, sim: Simulator, name: str, bus: Bus, spec: BlockSpec, params):
        self.sim = sim
        self.name = name
        self.bus = bus
        self.spec = spec
        self.params = params
        #: The nominal transfer rate and block size, read once from the
        #: frozen parameters and block geometry: every op needs both.
        self.rate_bytes_s = params.rate_bytes_s
        self._block_bytes = spec.block_bytes
        #: The disk arm or the tape drive mechanism.
        self.unit = Unit(sim)
        self.read_blocks = 0.0
        self.write_blocks = 0.0
        #: Where the device is: the region a disk arm last served (see
        #: ``repro.storage.disk_array.Region``), the head block of a tape
        #: drive.
        self.position = None
        self._last_op_end = 0.0
        #: Optional fault injector (``repro.faults``); None = fault-free,
        #: in which case each transfer is a plain bus transfer.
        self.faults = None
        #: Optional :class:`~repro.obs.recorder.JoinObserver`; recording
        #: is purely observational, so traced runs stay time-identical.
        self.observer = None

    def _lead_in(self, where, n_blocks: float, near: int | None) -> tuple[float, typing.Any]:
        """The positioning rule, applied once the unit is granted.

        Returns the seconds spent positioning before the first byte moves
        and the device's position once the transfer completes.
        """
        raise NotImplementedError

    def _finish(self, start: float, kind: str) -> None:
        """Close an op: stamp its end, record its busy span, release the unit."""
        now = self.sim._now
        self._last_op_end = now
        if self.observer is not None:
            self.observer.device_busy(self.name, start, now, kind)
            self.observer.queue_depth(self.name, now, len(self.unit.queue))
        self.unit.release()

    def _start_io(
        self, where, n_blocks: float, kind: str, near: int | None,
        finished: typing.Callable[[BaseException | None], None],
    ) -> None:
        """Run the op as callbacks alone, with no generator.

        Acquire the unit, sampling the queue the op joins; once it is
        granted, charge the lead-in and the transfer as one bus transfer
        (through the fault injector's retry loop, if the device has one);
        when that settles, move the position if it succeeded, record,
        release the unit and call ``finished`` with the failure or None,
        all at the settling instant.  The grant and the transfer call
        back, so the op builds no event.  Callers add the queue hops a
        process running the op would take (see ``DiskArray._fan_out``).
        """

        def granted(_arg=None) -> None:
            start = self.sim._now
            lead_in, after = self._lead_in(where, n_blocks, near)
            rate, n_bytes = self.rate_bytes_s, n_blocks * self._block_bytes

            def complete(failure: BaseException | None) -> None:
                if failure is None:
                    self.position = after
                self._finish(start, kind)
                finished(failure)

            if self.faults is None:
                self.bus.transfer(rate, n_bytes, lead_in, done=complete)
            else:
                self.faults.guarded_transfer(
                    self.bus, rate, n_bytes, lead_in, self.name, kind, done=complete
                )

        taken = self.unit.acquire(granted)
        if self.observer is not None:
            self.observer.queue_depth(self.name, self.sim._now, len(self.unit.queue))
        if taken:
            granted()

    def _io(
        self, where, n_blocks: float, kind: str, near: int | None = None
    ) -> typing.Generator:
        """Hold the unit, position at ``where``, then stream ``n_blocks``.

        ``near`` marks a disk burst of ``near + 1`` small requests (see
        :meth:`Disk._lead_in <repro.storage.disk.Disk._lead_in>`).
        Positioning and transfer share one bus transfer (lead-in), so an
        op costs a single scheduled completion.  The op runs as
        :meth:`_start_io`; the waiter resumes, or gets the failure
        thrown in, inside its completion callback, before any other
        same-time event.
        """
        done = Event(self.sim)
        self._start_io(where, n_blocks, kind, near, done._settle)
        yield done
