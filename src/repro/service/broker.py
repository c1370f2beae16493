"""Resource broker: drive, disk and memory leases for service jobs.

The broker leases the two tape drives of a :class:`~repro.storage.
hierarchy.StorageSystem` (the paper's two-drive machine, Section 3),
with a :class:`~repro.storage.library.TapeLibrary` of one robot arm, a
disk-array block pool and a memory block pool, and hands them out under
a deadlock-free discipline:

* One global acquisition order: memory, then disk, then drives.  Jobs
  acquire their memory/disk budget once, up front, and hold it to
  completion; drives are (re)acquired per step.
* Drive grants are atomic per waiter and strictly FIFO: the head of the
  queue blocks everyone behind it, so a two-drive job can never be
  starved by a stream of one-drive jobs, and no job ever holds one
  drive while waiting for another.
* A volume mounted on a *leased* drive is simply unavailable; the head
  waiter needing it waits for that lease to end (drive holders never
  wait on drives or pools, so the lease always ends).

Mounts go through the single robot arm (a :class:`~repro.simulator.
resources.Unit`) and charge the library's exchange latency; the broker
prefers granting a drive that already holds the requested cartridge,
which is what makes tape-affinity scheduling pay off.
"""

from __future__ import annotations

import collections
import typing

from repro.simulator.events import Event
from repro.simulator.resources import Container, Unit
from repro.storage.hierarchy import StorageSystem
from repro.storage.library import TapeLibrary
from repro.storage.tape import TapeDrive, TapeVolume

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import JoinObserver

#: Capacity given to service cartridges: effectively unbounded — the
#: service charges transfer time via profiles, not per-block tape I/O.
_VOLUME_CAPACITY_BLOCKS = 1e12


class DriveLease:
    """A granted claim on one tape drive and one cartridge."""

    __slots__ = ("index", "drive", "volume")

    def __init__(self, index: int, drive: TapeDrive, volume: str):
        self.index = index
        self.drive = drive
        self.volume = volume

    @property
    def name(self) -> str:
        """The leased drive's library slot (``drive0`` or ``drive1``)."""
        return f"drive{self.index}"


class ResourceBroker:
    """Leases drives, disk blocks and memory blocks to service jobs."""

    def __init__(
        self,
        storage: StorageSystem,
        *,
        memory_blocks: float,
        disk_blocks: float,
        exchange_s: float = 30.0,
        observer: "JoinObserver | None" = None,
    ):
        sim = self.sim = storage.sim
        self.observer = observer
        self.library = TapeLibrary(sim, exchange_s)
        self.drives = [storage.drive_r, storage.drive_s]
        self.robot = Unit(sim)
        self.memory = Container(sim, capacity=memory_blocks, init=memory_blocks)
        self.disk = Container(sim, capacity=disk_blocks, init=disk_blocks)
        self._free = list(range(len(self.drives)))
        self._waiters: collections.deque[tuple[tuple[str, ...], Event]] = (
            collections.deque()
        )
        #: Cartridges named by outstanding leases.  A physical cartridge
        #: can only be in one drive (or the robot's hand) at a time, so
        #: a volume stays unavailable until its lease is released even
        #: if jobs sharing it could otherwise be granted distinct drives.
        self._claimed: set[str] = set()

    # -- volumes ----------------------------------------------------------------

    @property
    def exchanges(self) -> int:
        """Media movements performed by the library robot so far."""
        return self.library.exchanges

    def register_volume(self, name: str) -> None:
        """Shelve a cartridge by name (idempotent)."""
        if name in self.library.shelf or self._holder(name) is not None:
            return
        self.library.add_volume(TapeVolume(name, _VOLUME_CAPACITY_BLOCKS))

    def _holder(self, volume_name: str) -> int | None:
        """Index of the drive currently holding ``volume_name``, if any."""
        for index, drive in enumerate(self.drives):
            if drive.volume is not None and drive.volume.name == volume_name:
                return index
        return None

    # -- drive leasing ----------------------------------------------------------

    def acquire(self, volume_names: typing.Sequence[str]) -> Event:
        """Request one drive per volume, atomically; value = leases.

        The grant waits until enough drives are free *and* every listed
        volume that is currently mounted sits on a free drive (that
        drive is then chosen for it, avoiding a pointless exchange).
        Grants are strictly FIFO — the queue never reorders.
        """
        if not 0 < len(volume_names) <= len(self.drives):
            raise ValueError(
                f"cannot lease {len(volume_names)} of {len(self.drives)} drives"
            )
        event = self.sim.event()
        self._waiters.append((tuple(volume_names), event))
        self._note_queue_depth()
        self._try_grant()
        return event

    def release(self, leases: typing.Sequence[DriveLease]) -> None:
        """Return leased drives/cartridges to the pool; wake the queue."""
        for lease in leases:
            self._free.append(lease.index)
            self._claimed.discard(lease.volume)
        self._free.sort()
        self._try_grant()

    def _allocate(self, volume_names: tuple[str, ...]) -> list[int] | None:
        """Pick one free drive per volume, or None if not grantable yet."""
        free = set(self._free)
        if len(free) < len(volume_names):
            return None
        chosen: dict[str, int] = {}
        for name in volume_names:
            if name in self._claimed:
                return None  # cartridge in use on another drive; wait
            holder = self._holder(name)
            if holder is not None:
                if holder not in free:
                    return None  # mounted on a leased drive; wait for it
                chosen[name] = holder
                free.discard(holder)
        remaining = sorted(
            free, key=lambda i: (self.drives[i].volume is not None, i)
        )
        for name in volume_names:
            if name not in chosen:
                chosen[name] = remaining.pop(0)
        return [chosen[name] for name in volume_names]

    def _try_grant(self) -> None:
        """Serve the waiter queue head-first (strict FIFO, no overtaking)."""
        while self._waiters:
            volume_names, event = self._waiters[0]
            allocation = self._allocate(volume_names)
            if allocation is None:
                return
            self._waiters.popleft()
            for index in allocation:
                self._free.remove(index)
            self._claimed.update(volume_names)
            self._note_queue_depth()
            event.succeed(
                [
                    DriveLease(index, self.drives[index], name)
                    for name, index in zip(volume_names, allocation)
                ]
            )

    def _note_queue_depth(self) -> None:
        if self.observer is not None:
            self.observer.queue_depth("drives", self.sim.now, len(self._waiters))

    # -- mounting ---------------------------------------------------------------

    def mount(self, lease: DriveLease, volume_name: str) -> typing.Generator:
        """Mount ``volume_name`` on the leased drive via the robot arm.

        A generator (``yield from`` it inside a job process).  Takes the
        single robot arm, charges the library's exchange latency, and
        records robot/drive busy time plus a ``mount`` span when tracing.
        Returns the number of media movements performed (0 if the
        cartridge was already mounted).  The arm is freed even if the
        mount fails (a volume not on the shelf raises ``KeyError``).
        """
        granted = Event(self.sim)
        if not self.robot.acquire(granted._settle):
            yield granted
        started = self.sim.now
        before = self.library.exchanges
        try:
            yield from self.library.mount(lease.drive, volume_name)
        finally:
            self.robot.release()
        moved = self.library.exchanges - before
        if moved and self.observer is not None:
            self.observer.device_busy("robot", started, self.sim.now, "exchange")
            self.observer.device_busy(lease.name, started, self.sim.now, "mount")
            self.observer.span(
                f"mount {volume_name} -> {lease.name}",
                started,
                self.sim.now,
                cat="mount",
            )
        return moved
