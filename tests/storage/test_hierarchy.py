"""Storage system assembly."""

import pytest

from repro.storage.hierarchy import StorageConfig, StorageSystem


class TestStorageConfig:
    def test_defaults(self):
        config = StorageConfig()
        assert config.n_disks == 2
        assert config.n_buses == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            StorageConfig(n_disks=0)
        with pytest.raises(ValueError):
            StorageConfig(n_buses=0)
        with pytest.raises(ValueError):
            StorageConfig(disk_capacity_blocks=0.0)
        with pytest.raises(ValueError, match=r"got -3.0 MB/s"):
            StorageConfig(bus_bandwidth_mb_s=-3.0)


class TestStorageSystem:
    def test_builds_expected_topology(self, sim):
        system = StorageSystem(sim, StorageConfig(n_disks=3, disk_capacity_blocks=300.0))
        assert len(system.disks) == 3
        assert system.array.n_disks == 3
        # Disk capacity is split evenly.
        assert all(d.capacity_blocks == pytest.approx(100.0) for d in system.disks)
        # One tape drive per bus end.
        assert system.drive_r.bus is system.buses[0]
        assert system.drive_s.bus is system.buses[-1]

    def test_disks_round_robin_over_buses(self, sim):
        system = StorageSystem(sim, StorageConfig(n_disks=4, n_buses=2))
        bus_names = [d.bus.name for d in system.disks]
        assert bus_names == ["scsi0", "scsi1", "scsi0", "scsi1"]

    def test_single_bus_shares_everything(self, sim):
        system = StorageSystem(sim, StorageConfig(n_buses=1))
        assert system.drive_r.bus is system.drive_s.bus

    def test_default_buses_are_uncontended(self, sim):
        # One tape drive (2 MB/s) and one disk (3.5 MB/s) per 10 MB/s bus:
        # the wired devices can never oversubscribe it.
        system = StorageSystem(sim, StorageConfig())
        assert [bus.uncontended for bus in system.buses] == [True, True]

    def test_narrow_shared_bus_keeps_the_flow_scheduler(self, sim):
        # Two drives and two disks (11 MB/s together) on one 5 MB/s bus.
        system = StorageSystem(sim, StorageConfig(n_buses=1, bus_bandwidth_mb_s=5.0))
        assert not system.buses[0].uncontended

    def test_traffic_totals_start_at_zero(self, sim):
        system = StorageSystem(sim, StorageConfig())
        assert system.array.read_blocks + system.array.write_blocks == 0.0
        for drive in (system.drive_r, system.drive_s):
            assert drive.read_blocks + drive.write_blocks == 0.0

    def test_faults_and_observer_reach_every_device(self, sim):
        from repro.faults import FaultInjector
        from repro.faults.plan import FaultPlan
        from repro.obs.recorder import JoinObserver

        system = StorageSystem(sim, StorageConfig(n_disks=3))
        injector = FaultInjector(sim, FaultPlan())
        observer = JoinObserver()
        system.install_faults(injector)
        system.install_observer(observer)
        devices = [system.drive_r, system.drive_s, *system.disks]
        assert all(device.faults is injector for device in devices)
        assert all(device.observer is observer for device in devices)
        assert all(bus.fault_hook == injector.glitch_delay for bus in system.buses)
        assert all(bus.observer is observer for bus in system.buses)
