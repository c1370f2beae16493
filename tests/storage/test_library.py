"""Tape library (robot) behaviour."""

import pytest

from repro.storage.block import BlockSpec
from repro.storage.bus import Bus
from repro.storage.library import TapeLibrary
from repro.storage.tape import TapeDrive, TapeVolume


@pytest.fixture
def drive(sim):
    return TapeDrive(sim, "t0", Bus(sim, "scsi"), BlockSpec())


@pytest.fixture
def library(sim):
    lib = TapeLibrary(sim, exchange_s=30.0)
    lib.add_volume(TapeVolume("a", 100.0))
    lib.add_volume(TapeVolume("b", 100.0))
    return lib


def run(sim, gen):
    return sim.run(sim.process(gen))


class TestShelf:
    def test_duplicate_volume_rejected(self, library):
        with pytest.raises(ValueError):
            library.add_volume(TapeVolume("a", 10.0))

    def test_negative_exchange_rejected(self, sim):
        with pytest.raises(ValueError):
            TapeLibrary(sim, exchange_s=-1.0)

    @pytest.mark.parametrize("exchange_s", [float("nan"), float("inf")])
    def test_non_finite_exchange_rejected(self, sim, exchange_s):
        with pytest.raises(ValueError):
            TapeLibrary(sim, exchange_s=exchange_s)


class TestMount:
    def test_mount_charges_exchange_and_load(self, sim, library, drive):
        run(sim, library.mount(drive, "a"))
        assert drive.volume.name == "a"
        assert sim.now == pytest.approx(30.0 + drive.params.load_s)
        assert library.exchanges == 1

    def test_remount_same_volume_is_free(self, sim, library, drive):
        run(sim, library.mount(drive, "a"))
        before = sim.now
        run(sim, library.mount(drive, "a"))
        assert sim.now == before

    def test_swap_returns_old_volume_to_shelf(self, sim, library, drive):
        run(sim, library.mount(drive, "a"))
        run(sim, library.mount(drive, "b"))
        assert drive.volume.name == "b"
        assert "a" in library.shelf
        assert library.exchanges == 3  # load a, unload a, load b

    def test_mount_unknown_volume(self, sim, library, drive):
        with pytest.raises(KeyError):
            run(sim, library.mount(drive, "zz"))

    @pytest.mark.parametrize("head", [0.0, 5.0])
    def test_swap_rewinds_a_cartridge_whose_head_is_past_block_zero(
        self, sim, library, drive, head
    ):
        run(sim, library.mount(drive, "a"))
        drive.position = head
        before = sim.now
        run(sim, library.mount(drive, "b"))
        rewind = drive.params.rewind_s if head > 0 else 0.0
        assert sim.now - before == pytest.approx(rewind + 2 * 30.0 + drive.params.load_s)
