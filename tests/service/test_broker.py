"""Resource broker: drive leasing, cartridge exclusivity, mount accounting."""

import pytest

from repro.service.broker import ResourceBroker
from repro.storage.hierarchy import StorageConfig, StorageSystem


@pytest.fixture
def storage(sim):
    return StorageSystem(sim, StorageConfig())


@pytest.fixture
def broker(storage):
    b = ResourceBroker(storage, memory_blocks=100.0, disk_blocks=100.0)
    for volume in ("alpha", "beta", "gamma"):
        b.register_volume(volume)
    return b


def run(sim, gen):
    return sim.run(sim.process(gen))


class TestLeasing:
    def test_the_drives_are_the_storage_systems_own(self, storage, broker):
        assert len(broker.drives) == 2
        assert broker.drives[0] is storage.drive_r
        assert broker.drives[1] is storage.drive_s

    def test_leases_keep_the_library_slot_names(self, sim, broker):
        def proc():
            leases = yield broker.acquire(["alpha", "beta"])
            assert [lease.name for lease in leases] == ["drive0", "drive1"]
            broker.release(leases)

        run(sim, proc())

    def test_uncontended_acquire_grants_distinct_drives(self, sim, broker):
        def proc():
            leases = yield broker.acquire(["alpha", "beta"])
            assert [lease.volume for lease in leases] == ["alpha", "beta"]
            assert leases[0].drive is not leases[1].drive
            broker.release(leases)

        run(sim, proc())

    def test_cartridge_exclusive_across_leases(self, sim, broker):
        """Two jobs can never hold the same physical cartridge at once."""
        timeline = []

        def first():
            leases = yield broker.acquire(["alpha"])
            yield from broker.mount(leases[0], "alpha")
            yield sim.timeout(100.0)
            timeline.append(("first-release", sim.now))
            broker.release(leases)

        def second():
            leases = yield broker.acquire(["alpha"])
            timeline.append(("second-granted", sim.now))
            broker.release(leases)

        sim.process(first())
        sim.process(second())
        sim.run()
        events = dict(timeline)
        assert events["second-granted"] >= events["first-release"]

    def test_grants_are_fifo(self, sim, broker):
        """A later small request cannot overtake an earlier blocked one."""
        order = []

        def hog():
            leases = yield broker.acquire(["alpha", "beta"])
            yield sim.timeout(10.0)
            broker.release(leases)

        def waiter(name, volume):
            leases = yield broker.acquire([volume])
            order.append(name)
            yield sim.timeout(1.0)
            broker.release(leases)

        sim.process(hog())
        sim.process(waiter("w1", "gamma"))
        sim.process(waiter("w2", "beta"))
        sim.run()
        assert order == ["w1", "w2"]


class TestMounting:
    def test_first_mount_costs_one_exchange(self, sim, broker):
        def proc():
            leases = yield broker.acquire(["alpha"])
            moved = yield from broker.mount(leases[0], "alpha")
            assert moved == 1
            broker.release(leases)

        run(sim, proc())
        assert broker.exchanges == 1
        assert sim.now > 0

    def test_remount_of_mounted_volume_is_free(self, sim, broker):
        def proc():
            leases = yield broker.acquire(["alpha"])
            yield from broker.mount(leases[0], "alpha")
            moved = yield from broker.mount(leases[0], "alpha")
            assert moved == 0
            broker.release(leases)

        run(sim, proc())
        assert broker.exchanges == 1

    def test_affinity_reacquires_the_holder_drive(self, sim, broker):
        """A released cartridge's drive is preferred, avoiding a swap."""

        def proc():
            leases = yield broker.acquire(["alpha"])
            first_drive = leases[0].drive
            yield from broker.mount(leases[0], "alpha")
            broker.release(leases)

            leases = yield broker.acquire(["alpha"])
            assert leases[0].drive is first_drive
            moved = yield from broker.mount(leases[0], "alpha")
            assert moved == 0
            broker.release(leases)

        run(sim, proc())
        assert broker.exchanges == 1

    def test_failed_mount_frees_the_robot(self, sim, broker):
        """A mount of a volume not on the shelf raises and frees the robot."""
        done = []

        def failing():
            leases = yield broker.acquire(["alpha"])
            with pytest.raises(KeyError):
                yield from broker.mount(leases[0], "missing")
            done.append("failed")
            broker.release(leases)

        def second():
            leases = yield broker.acquire(["beta"])
            moved = yield from broker.mount(leases[0], "beta")
            done.append(("mounted", moved))
            broker.release(leases)

        sim.process(failing())
        sim.process(second())
        sim.run()
        assert done == ["failed", ("mounted", 1)]
        assert broker.exchanges == 1
