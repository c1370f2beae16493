"""Assembly of the full storage hierarchy of the paper's testbed.

The reference configuration mirrors Section 6: two Fast SCSI-2 buses, one
tape drive per bus, disks spread over the buses and all disks pooled into
one :class:`~repro.storage.disk_array.DiskArray`.  The R and S volumes are
loaded straight into the drives: the paper's joins assume pre-loaded tapes.
"""

from __future__ import annotations

import dataclasses

from repro.simulator.engine import Simulator
from repro.storage.block import BlockSpec
from repro.storage.bus import Bus
from repro.storage.disk import Disk, DiskParameters
from repro.storage.disk_array import DiskArray
from repro.storage.tape import TapeDrive, TapeDriveParameters


@dataclasses.dataclass(frozen=True)
class StorageConfig:
    """Hardware description for one simulated system.

    ``disk_capacity_blocks`` is the *total* disk space available to the
    join (the model's ``D``), split evenly over ``n_disks`` — running out
    of it raises, which is how Table 2's disk-space requirements are
    enforced and verified.
    """

    spec: BlockSpec = dataclasses.field(default_factory=BlockSpec)
    n_disks: int = 2
    disk_capacity_blocks: float = 5120.0
    disk_params: DiskParameters = dataclasses.field(default_factory=DiskParameters)
    tape_params_r: TapeDriveParameters = dataclasses.field(default_factory=TapeDriveParameters)
    tape_params_s: TapeDriveParameters = dataclasses.field(default_factory=TapeDriveParameters)
    n_buses: int = 2
    bus_bandwidth_mb_s: float = 10.0

    def __post_init__(self):
        if self.n_disks < 1:
            raise ValueError("need at least one disk")
        if self.n_buses < 1:
            raise ValueError("need at least one bus")
        if self.disk_capacity_blocks <= 0:
            raise ValueError("disk capacity must be positive")
        if self.bus_bandwidth_mb_s <= 0:
            raise ValueError(
                f"bus bandwidth must be positive, got {self.bus_bandwidth_mb_s} MB/s"
            )


class StorageSystem:
    """Buses, disks, the array and two tape drives, wired up."""

    def __init__(self, sim: Simulator, config: StorageConfig):
        self.sim = sim
        self.config = config
        spec = config.spec
        bw = config.bus_bandwidth_mb_s * 1024 * 1024
        self.buses = [Bus(sim, f"scsi{i}", bw) for i in range(config.n_buses)]
        per_disk = config.disk_capacity_blocks / config.n_disks
        self.disks = [
            Disk(
                sim,
                f"disk{i}",
                self.buses[i % config.n_buses],
                spec,
                per_disk,
                config.disk_params,
            )
            for i in range(config.n_disks)
        ]
        self.array = DiskArray(sim, self.disks)
        # One tape drive per bus, as in the paper's testbed; with a single
        # bus both drives share it.
        self.drive_r = TapeDrive(sim, "tape_r", self.buses[0], spec, config.tape_params_r)
        self.drive_s = TapeDrive(
            sim, "tape_s", self.buses[-1], spec, config.tape_params_s
        )
        #: Every disk and tape drive, listed once for fault and observer wiring.
        self.devices = [self.drive_r, self.drive_s, *self.disks]
        for bus in self.buses:
            bus.wire([device for device in self.devices if device.bus is bus])

    @property
    def spec(self) -> BlockSpec:
        """The system's block geometry."""
        return self.config.spec

    def install_faults(self, injector) -> None:
        """Attach a :class:`~repro.faults.injector.FaultInjector` to every
        bus, disk and tape drive of this system."""
        injector.attach(self)

    def install_observer(self, observer) -> None:
        """Attach a :class:`~repro.obs.recorder.JoinObserver` to every
        bus, disk and tape drive of this system."""
        for part in (*self.devices, *self.buses):
            part.observer = observer
