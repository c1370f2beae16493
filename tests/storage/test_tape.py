"""Tape model: volumes, files, drives, repositioning, compression."""

import numpy as np
import pytest

from repro.simulator.process import ProcessCrash
from repro.storage.block import MB, BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.tape import (
    TapeDrive,
    TapeDriveParameters,
    TapeFullError,
    TapeVolume,
)


@pytest.fixture
def drive(sim):
    return TapeDrive(sim, "t0", Bus(sim, "scsi"), BlockSpec())


@pytest.fixture
def volume():
    return TapeVolume("vol", capacity_blocks=1000.0)


def run(sim, gen):
    return sim.run(sim.process(gen))


def chunk_of(n_blocks, tpb=10, start=0):
    return DataChunk.from_keys(np.arange(start, start + round(n_blocks * tpb)), tpb)


class TestTapeDriveParameters:
    def test_compression_scales_rate(self):
        base = TapeDriveParameters(native_rate_mb_s=1.5, compression_ratio=0.25)
        assert base.effective_rate_mb_s == pytest.approx(2.0)
        slow = TapeDriveParameters(native_rate_mb_s=1.5, compression_ratio=0.0)
        assert slow.effective_rate_mb_s == pytest.approx(1.5)
        fast = TapeDriveParameters(native_rate_mb_s=1.5, compression_ratio=0.5)
        assert fast.effective_rate_mb_s == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TapeDriveParameters(native_rate_mb_s=0.0)
        with pytest.raises(ValueError):
            TapeDriveParameters(compression_ratio=1.0)
        with pytest.raises(ValueError):
            TapeDriveParameters(rewind_s=-1.0)

    @pytest.mark.parametrize(
        "field",
        [
            "native_rate_mb_s", "compression_ratio", "reposition_s", "rewind_s",
            "load_s", "stop_start_penalty_s", "locate_s_per_gb",
        ],
    )
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            TapeDriveParameters(**{field: float("nan")})


class TestTapeVolume:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TapeVolume("v", capacity_blocks=0.0)

    def test_create_files_appends_sequentially(self, volume):
        first = volume.create_file("a")
        first._append(chunk_of(10.0))
        second = volume.create_file("b")
        assert second.start_block == pytest.approx(10.0)
        assert first.closed

    def test_duplicate_file_name_rejected(self, volume):
        volume.create_file("a")
        with pytest.raises(ValueError):
            volume.create_file("a")

    def test_file_lookup(self, volume):
        created = volume.create_file("a")
        assert volume.file("a") is created
        with pytest.raises(KeyError):
            volume.file("missing")

    def test_closed_file_rejects_appends(self, volume):
        first = volume.create_file("a")
        volume.create_file("b")
        with pytest.raises(RuntimeError, match="closed"):
            first._append(chunk_of(1.0))

    def test_dropped_volume_frees_its_files_without_the_collector(self):
        import gc
        import weakref

        volume = TapeVolume("v", capacity_blocks=100.0)
        tape_file = volume.create_file("a")
        tape_file._append(chunk_of(10.0))
        assert tape_file.volume is volume
        content = weakref.ref(tape_file.chunks[0].keys)
        del volume, tape_file
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert content() is None  # no volume/file reference cycle
        finally:
            if enabled:
                gc.enable()

    def test_written_after_measures_scratch(self, volume):
        data = volume.create_file("data")
        data._append(chunk_of(100.0))
        mark = volume.end_block
        scratch = volume.create_file("scratch")
        scratch._append(chunk_of(25.0))
        assert volume.written_after(mark) == pytest.approx(25.0)


class TestTapeDriveIO:
    def _load(self, drive, volume, n_blocks=100.0):
        data = volume.create_file("data")
        data._append(chunk_of(n_blocks))
        drive.load(volume)
        return data

    def test_read_timing_at_effective_rate(self, sim, drive, volume):
        data = self._load(drive, volume)
        run(sim, drive.read_range(data, 0.0, 20.0))
        expected = 20 * 100 * 1024 / drive.params.rate_bytes_s
        assert sim.now == pytest.approx(expected, rel=1e-6)
        assert drive.repositions == 0

    def test_sequential_reads_stream(self, sim, drive, volume):
        data = self._load(drive, volume)

        def reads():
            yield from drive.read_range(data, 0.0, 10.0)
            yield from drive.read_range(data, 10.0, 10.0)

        run(sim, reads())
        assert drive.repositions == 0

    def test_nonsequential_read_pays_reposition(self, sim, drive, volume):
        data = self._load(drive, volume)

        def reads():
            yield from drive.read_range(data, 50.0, 10.0)
            yield from drive.read_range(data, 0.0, 10.0)

        run(sim, reads())
        assert drive.repositions == 2  # initial locate + jump back

    def test_read_returns_correct_tuples(self, sim, drive, volume):
        data = self._load(drive, volume)
        piece = run(sim, drive.read_range(data, 5.0, 2.0))
        np.testing.assert_array_equal(piece.keys, np.arange(50, 70))

    def test_read_keys_are_read_only(self, sim, drive, volume):
        # A read within one stored chunk is a view of that chunk's keys:
        # a consumer must not be able to write into the tape's content.
        data = self._load(drive, volume)
        piece = run(sim, drive.read_range(data, 5.0, 2.0))
        with pytest.raises(ValueError, match="read-only"):
            piece.keys[0] = -1
        np.testing.assert_array_equal(data.peek_all().keys[50:52], [50, 51])

    def test_read_file_reads_everything(self, sim, drive, volume):
        data = self._load(drive, volume, n_blocks=30.0)
        whole = run(sim, drive.read_file(data))
        assert whole.n_tuples == 300

    def test_append_grows_last_file(self, sim, drive, volume):
        self._load(drive, volume)
        scratch = volume.create_file("scratch")
        run(sim, drive.append(scratch, chunk_of(5.0, start=5000)))
        assert scratch.n_blocks == pytest.approx(5.0)
        assert drive.write_blocks == pytest.approx(5.0)

    def test_append_to_non_last_file_rejected(self, sim, drive, volume):
        data = self._load(drive, volume)
        volume.create_file("scratch")
        with pytest.raises(ProcessCrash, match="append-only"):
            run(sim, drive.append(data, chunk_of(1.0)))

    def test_append_beyond_capacity_rejected(self, sim, drive):
        volume = TapeVolume("tiny", capacity_blocks=10.0)
        data = volume.create_file("data")
        data._append(chunk_of(8.0))
        drive.load(volume)
        with pytest.raises(ProcessCrash, match="capacity"):
            run(sim, drive.append(data, chunk_of(5.0)))

    def test_full_error_names_volume_and_sizes(self, sim, drive):
        """The diagnostic must say which volume filled, how much the
        append wanted versus what was free, and the total capacity."""
        volume = TapeVolume("tiny", capacity_blocks=10.0)
        data = volume.create_file("data")
        data._append(chunk_of(8.0))
        drive.load(volume)
        with pytest.raises(ProcessCrash) as exc_info:
            run(sim, drive.append(data, chunk_of(5.0)))
        cause = exc_info.value.__cause__
        assert isinstance(cause, TapeFullError)
        message = str(cause)
        assert "volume tiny" in message
        assert "5.0 blocks" in message  # requested
        assert "2.0" in message  # available
        assert "capacity 10.0" in message
        # No Table 2 symbol attached: generic phrasing.
        assert "the volume is full" in message

    def test_full_error_names_table2_requirement(self, sim, drive):
        """Join-owned volumes carry their Table 2 scratch symbol; running
        out of tape must name the requirement that was violated."""
        volume = TapeVolume("vol_r", capacity_blocks=10.0, requirement="T_R")
        data = volume.create_file("data")
        data._append(chunk_of(9.0))
        drive.load(volume)
        with pytest.raises(ProcessCrash) as exc_info:
            run(sim, drive.append(data, chunk_of(4.0)))
        message = str(exc_info.value.__cause__)
        assert "Table 2 scratch requirement T_R" in message
        assert "violated" in message

    def test_head_moves_only_after_a_completed_transfer(self, sim, drive, volume):
        from repro.faults import FaultInjector
        from repro.faults.plan import FaultPlan
        from repro.faults.policy import RetryPolicy

        data = self._load(drive, volume)
        run(sim, drive.read_range(data, 0.0, 50.0))
        assert drive.position == pytest.approx(50.0)
        drive.faults = FaultInjector(
            sim, FaultPlan(tape_read_error_rate=1.0), RetryPolicy(max_retries=0)
        )
        with pytest.raises(ProcessCrash):
            run(sim, drive.read_range(data, 0.0, 10.0))
        assert drive.position == pytest.approx(50.0)
        assert drive.repositions == 1

    def test_stop_start_penalty_when_enabled(self, sim):
        params = TapeDriveParameters(stop_start_penalty_s=2.0)
        drive = TapeDrive(sim, "t", Bus(sim, "scsi"), BlockSpec(), params)
        volume = TapeVolume("v", 100.0)
        data = volume.create_file("data")
        data._append(chunk_of(20.0))
        drive.load(volume)

        def reads():
            yield from drive.read_range(data, 0.0, 5.0)
            yield sim.timeout(10.0)  # drive idles: the stream breaks
            yield from drive.read_range(data, 5.0, 5.0)

        run(sim, reads())
        transfer = 10 * 100 * 1024 / drive.params.rate_bytes_s
        assert sim.now == pytest.approx(transfer + 10.0 + 2.0, rel=1e-6)


class TestMediaHandling:
    def test_load_unload(self, drive, volume):
        drive.load(volume)
        assert drive.volume is volume
        with pytest.raises(RuntimeError, match="already"):
            drive.load(volume)
        assert drive.unload() is volume
        with pytest.raises(RuntimeError, match="no volume"):
            drive.unload()

    def test_io_requires_volume(self, sim, drive, volume):
        data = volume.create_file("data")
        data._append(chunk_of(5.0))
        with pytest.raises(ProcessCrash, match="no volume"):
            run(sim, drive.read_range(data, 0.0, 1.0))

    def test_io_rejects_file_from_other_volume(self, sim, drive, volume):
        other = TapeVolume("other", 100.0)
        stray = other.create_file("stray")
        stray._append(chunk_of(1.0))
        drive.load(volume)
        with pytest.raises(ProcessCrash, match="loaded"):
            run(sim, drive.read_range(stray, 0.0, 1.0))
