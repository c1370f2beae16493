"""Disk drive model: timing, positioning, capacity.

A disk holds no content of its own; content lives in the extents of a
:class:`DiskArray`.  These tests drive one disk through a one-disk array,
or through ``Disk._io`` with any object as the positioning identity.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, RetryExhaustedError
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.simulator.process import ProcessCrash
from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.disk import Disk, DiskFullError, DiskParameters
from repro.storage.disk_array import DiskArray

@pytest.fixture
def disk(sim):
    bus = Bus(sim, "scsi")
    return Disk(sim, "d0", bus, BlockSpec(), capacity_blocks=100.0)


@pytest.fixture
def array(sim, disk):
    return DiskArray(sim, [disk])


def run(sim, gen):
    return sim.run(sim.process(gen))


def chunk_of(n_blocks, tpb=10, start=0):
    return DataChunk.from_keys(np.arange(start, start + round(n_blocks * tpb)), tpb)


def transfer_s(disk, n_blocks):
    return disk.spec.bytes_from_blocks(n_blocks) / disk.params.rate_bytes_s


class TestDiskParameters:
    def test_defaults_are_mid_nineties(self):
        params = DiskParameters()
        assert params.transfer_rate_mb_s == pytest.approx(3.5)
        assert params.positioning_s == pytest.approx(0.0166)
        assert params.near_positioning_s == pytest.approx(0.004)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskParameters(transfer_rate_mb_s=0.0)
        with pytest.raises(ValueError):
            DiskParameters(avg_seek_ms=-1.0)

    @pytest.mark.parametrize(
        "field",
        ["transfer_rate_mb_s", "avg_seek_ms", "rotational_latency_ms", "near_seek_ms"],
    )
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            DiskParameters(**{field: float("nan")})


class TestSpaceAccounting:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Disk(sim, "d", Bus(sim, "b"), BlockSpec(), capacity_blocks=0.0)

    def test_write_reserves_space(self, sim, disk, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(30.0)))
        assert disk.used_blocks == pytest.approx(30.0)
        assert disk.free_blocks == pytest.approx(70.0)

    def test_overflow_raises_disk_full(self, sim, array):
        extent = array.allocate("data")
        with pytest.raises(ProcessCrash) as exc_info:
            run(sim, array.write(extent, chunk_of(150.0)))
        assert isinstance(exc_info.value.__cause__, DiskFullError)

    def test_full_error_reports_budget_and_requirement(self, sim, array):
        """The diagnostic must name the disk, the requested vs free
        blocks, the occupancy, and the Table 2 symbol (D) at fault."""
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(30.0)))
        with pytest.raises(ProcessCrash) as exc_info:
            run(sim, array.write(extent, chunk_of(90.0)))
        cause = exc_info.value.__cause__
        assert isinstance(cause, DiskFullError)
        message = str(cause)
        assert "disk d0" in message
        assert "90.0 blocks" in message  # requested
        assert "70.0 blocks free" in message
        assert "30.0/100.0 in use" in message
        assert "Table 2 requirement D" in message

    def test_consume_releases_space(self, sim, disk, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(30.0)))
        data = run(sim, array.read_all(extent, consume=True))
        assert data.n_tuples == 300
        assert disk.used_blocks == pytest.approx(0.0)

    def test_peak_tracking(self, sim, disk, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(40.0)))
        run(sim, array.read_all(extent, consume=True))
        run(sim, array.write(extent, chunk_of(10.0)))
        assert disk.peak_used_blocks == pytest.approx(40.0)

    def test_duplicate_extent_name_rejected(self, array):
        array.allocate("x")
        with pytest.raises(ValueError, match="already exists"):
            array.allocate("x")

    def test_free_extent_releases_and_forgets(self, sim, disk, array):
        extent = array.allocate("x")
        run(sim, array.write(extent, chunk_of(10.0)))
        array.free(extent)
        assert disk.used_blocks == pytest.approx(0.0)
        with pytest.raises(ValueError):
            array.free(extent)


class TestTiming:
    def test_write_charges_position_plus_transfer(self, sim, disk, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(35.0)))
        expected = disk.params.positioning_s + transfer_s(disk, 35.0)
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_sequential_ops_skip_positioning(self, sim, disk, array):
        extent = array.allocate("data")

        def writes():
            yield from array.write(extent, chunk_of(35.0))
            yield from array.write(extent, chunk_of(35.0, start=1000))

        run(sim, writes())
        expected = disk.params.positioning_s + 2 * transfer_s(disk, 35.0)
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_alternating_extents_pay_seeks(self, sim, disk, array):
        a, b = array.allocate("a"), array.allocate("b")

        def writes():
            yield from array.write(a, chunk_of(3.5))
            yield from array.write(b, chunk_of(3.5))
            yield from array.write(a, chunk_of(3.5, start=500))

        run(sim, writes())
        expected = 3 * (disk.params.positioning_s + transfer_s(disk, 3.5))
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_burst_io_charges_near_positions(self, sim, disk):
        run(sim, disk._io("region", 35.0, "disk-write", near=9))
        expected = (
            disk.params.positioning_s
            + 9 * disk.params.near_positioning_s
            + transfer_s(disk, 35.0)
        )
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_burst_always_repositions(self, sim, disk):
        """A burst pays its full reposition even when the arm is already
        at the same identity; a single request streams on."""

        def ops():
            yield from disk._io("region", 3.5, "disk-read")
            yield from disk._io("region", 3.5, "disk-read", near=0)
            yield from disk._io("region", 3.5, "disk-read")

        run(sim, ops())
        expected = 2 * disk.params.positioning_s + 3 * transfer_s(disk, 3.5)
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_arm_serializes_concurrent_ops(self, sim, disk, array):
        a, b = array.allocate("a"), array.allocate("b")
        p1 = sim.process(array.write(a, chunk_of(35.0)))
        p2 = sim.process(array.write(b, chunk_of(35.0)))
        sim.run()
        assert p1.processed and p2.processed
        # Two seeks plus two strictly sequential transfers.
        expected = 2 * (disk.params.positioning_s + transfer_s(disk, 35.0))
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_arm_moves_at_grant_even_if_the_transfer_fails(self, sim, disk):
        disk.faults = FaultInjector(
            sim, FaultPlan(disk_error_rate=1.0), RetryPolicy(max_retries=0)
        )
        with pytest.raises(ProcessCrash) as exc_info:
            run(sim, disk._io("region", 3.5, "disk-read"))
        assert isinstance(exc_info.value.__cause__, RetryExhaustedError)
        assert disk.position == "region"
        disk.faults = None
        before = sim.now
        run(sim, disk._io("region", 3.5, "disk-read"))
        assert sim.now - before == pytest.approx(transfer_s(disk, 3.5), rel=1e-9)


class TestReads:
    def test_read_range_returns_slice_without_consuming(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(10.0)))
        piece = run(sim, array.read_range(extent, 2.0, 3.0))
        np.testing.assert_array_equal(piece.keys, np.arange(20, 50))
        assert extent.n_blocks == pytest.approx(10.0)

    def test_read_next_consumes_fifo(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(2.0)))
        run(sim, array.write(extent, chunk_of(2.0, start=100)))
        first = run(sim, array.read_next(extent))
        assert first.keys[0] == 0
        assert extent.n_blocks == pytest.approx(2.0)

    def test_read_next_on_empty_raises(self, sim, array):
        extent = array.allocate("data")
        with pytest.raises(ProcessCrash):
            run(sim, array.read_next(extent))

    def test_traffic_counters(self, sim, disk, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(10.0)))
        run(sim, array.read_all(extent))
        assert disk.write_blocks == pytest.approx(10.0)
        assert disk.read_blocks == pytest.approx(10.0)
