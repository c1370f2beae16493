"""Magnetic tape model: volumes, files and drives.

Models the Quantum DLT-4000 class drive the paper used:

* inherently sequential media — appends only at the end of the volume;
* a sustained transfer rate that scales with data compressibility (the
  paper's Experiment 3 varies tape speed by using 0 %, 25 % and 50 %
  compressible data);
* repositioning (locate) penalties when access is not sequential, and
  optional stop/start penalties (off by default — the paper assumes the
  drive's read-ahead buffer hides them);
* a fixed volume capacity, which is how scratch-space requirements
  (``T_R``/``T_S`` in Table 2) are enforced and verified.
"""

from __future__ import annotations

import dataclasses
import typing
import weakref

from repro.simulator.engine import Simulator
from repro.simulator.events import Event
from repro.storage.block import MB, BlockSpec, DataChunk, check_range, slice_chunks
from repro.storage.bus import Bus
from repro.storage.device import Device


class TapeFullError(RuntimeError):
    """Raised when an append would exceed the volume's capacity."""


@dataclasses.dataclass(frozen=True)
class TapeDriveParameters:
    """Performance characteristics of one tape drive.

    ``native_rate_mb_s`` is the media rate; the effective rate is
    ``native / (1 - compression_ratio)`` — e.g. the DLT-4000's 1.5 MB/s
    native becomes 2.0 MB/s on 25 %-compressible data.
    """

    native_rate_mb_s: float = 1.5
    compression_ratio: float = 0.25
    reposition_s: float = 2.0
    rewind_s: float = 10.0
    load_s: float = 30.0
    stop_start_penalty_s: float = 0.0
    #: SCSI READ REVERSE support (the paper's footnote 2): a drive that
    #: can read backwards never repositions between alternating-direction
    #: scans, "making rewinds unnecessary in all the algorithms".
    supports_read_reverse: bool = False
    #: Distance term of the locate time, seconds per gigabyte of media
    #: crossed (0 = the paper's constant-cost simplification).  Hillyer &
    #: Silberschatz model DLT random access in detail; the join methods
    #: here are mostly sequential, so this mainly prices the jump between
    #: a relation's end and the appended bucket files.
    locate_s_per_gb: float = 0.0

    def __post_init__(self):
        if not self.native_rate_mb_s > 0:
            raise ValueError("native rate must be positive")
        if not 0 <= self.compression_ratio < 1:
            raise ValueError(
                f"compression ratio must be in [0, 1), got {self.compression_ratio}"
            )
        delays = (
            self.reposition_s, self.rewind_s, self.load_s,
            self.stop_start_penalty_s, self.locate_s_per_gb,
        )
        if not all(delay >= 0 for delay in delays):
            raise ValueError("delays must be non-negative (and not NaN)")

    @property
    def effective_rate_mb_s(self) -> float:
        """Data rate seen by the host, after compression."""
        return self.native_rate_mb_s / (1.0 - self.compression_ratio)

    @property
    def rate_bytes_s(self) -> float:
        """Effective rate in bytes per second."""
        return self.effective_rate_mb_s * MB


class TapeFile:
    """A contiguous file on a tape volume."""

    def __init__(self, volume: "TapeVolume", name: str, start_block: float):
        # Weak, because the volume owns its files: a strong back-reference
        # would make every volume a reference cycle, and a finished join's
        # tape contents would wait for the cyclic garbage collector.
        self._volume = weakref.ref(volume)
        self.name = name
        self.start_block = start_block
        self.chunks: list[DataChunk] = []
        self.n_blocks = 0.0
        self.closed = False

    @property
    def volume(self) -> "TapeVolume":
        """The volume the file is on."""
        return self._volume()

    @property
    def end_block(self) -> float:
        """Position just past the file's last block."""
        return self.start_block + self.n_blocks

    @property
    def n_tuples(self) -> int:
        """Total tuples stored in the file."""
        return sum(c.n_tuples for c in self.chunks)

    def peek_all(self) -> DataChunk:
        """Entire file content."""
        return DataChunk.concat(self.chunks)

    def slice_range(self, offset_blocks: float, n_blocks: float) -> DataChunk:
        """Tuples in block range [offset, offset + n_blocks) of the file."""
        return slice_chunks(self.chunks, self.n_blocks, offset_blocks, n_blocks)

    def _append(self, chunk: DataChunk) -> None:
        if self.closed:
            raise RuntimeError(f"tape file {self.name!r} is closed")
        self.chunks.append(chunk)
        self.n_blocks += chunk.n_blocks


class TapeVolume:
    """One tape cartridge: an ordered sequence of files."""

    def __init__(self, name: str, capacity_blocks: float, requirement: str | None = None):
        if capacity_blocks <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_blocks}")
        self.name = name
        self.capacity_blocks = float(capacity_blocks)
        #: Table 2 scratch symbol this volume's capacity enforces
        #: ("T_R"/"T_S"); names the violated requirement when it fills up.
        self.requirement = requirement
        self.files: list[TapeFile] = []
        self._by_name: dict[str, TapeFile] = {}

    @property
    def end_block(self) -> float:
        """Position of the end of recorded data."""
        return self.files[-1].end_block if self.files else 0.0

    @property
    def free_blocks(self) -> float:
        """Unrecorded capacity."""
        return self.capacity_blocks - self.end_block

    def file(self, name: str) -> TapeFile:
        """Look up a file by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no file {name!r} on volume {self.name}") from None

    def create_file(self, name: str) -> TapeFile:
        """Start a new file at the end of the volume.

        The previous last file is closed — tape media is append-only.
        """
        if name in self._by_name:
            raise ValueError(f"file {name!r} already on volume {self.name}")
        if self.files:
            self.files[-1].closed = True
        tape_file = TapeFile(self, name, self.end_block)
        self.files.append(tape_file)
        self._by_name[name] = tape_file
        return tape_file

    def record(self, name: str, chunk: DataChunk) -> TapeFile:
        """A new file holding ``chunk``, recorded before the simulation
        starts: a pre-written cartridge, so no drive and no simulated time."""
        tape_file = self.create_file(name)
        tape_file._append(chunk)
        return tape_file

    def written_after(self, position_block: float) -> float:
        """Blocks recorded at or after ``position_block`` (scratch usage)."""
        return max(0.0, self.end_block - position_block)


class TapeDrive(Device):
    """One tape drive: a head position, a bus attachment and one media slot.

    :attr:`position` is the head block.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bus: Bus,
        spec: BlockSpec,
        params: TapeDriveParameters | None = None,
    ):
        super().__init__(sim, name, bus, spec, params or TapeDriveParameters())
        self.volume: TapeVolume | None = None
        self.position = 0.0
        self.repositions = 0

    # -- media handling ---------------------------------------------------------

    def load(self, volume: TapeVolume) -> None:
        """Mount a volume instantly (bookkeeping only; the library charges time)."""
        if self.volume is not None:
            raise RuntimeError(f"drive {self.name} already has {self.volume.name} loaded")
        self.volume = volume
        self.position = 0.0

    def unload(self) -> TapeVolume:
        """Eject the mounted volume."""
        if self.volume is None:
            raise RuntimeError(f"drive {self.name} has no volume loaded")
        volume, self.volume = self.volume, None
        return volume

    # -- I/O operations (use with ``yield from``) ---------------------------------

    def _lead_in(
        self, target_block: float, n_blocks: float, near: int | None
    ) -> tuple[float, float]:
        """Locate to ``target_block`` unless the head is already there.

        A drive with READ REVERSE serves a request whose *end* is at the
        current head position by reading backwards — no reposition, and
        the head finishes at the range's start.
        """
        head = self.position
        reverse = (
            self.params.supports_read_reverse
            and abs(head - (target_block + n_blocks)) <= 1e-9
            and n_blocks > 0
        )
        penalty = 0.0
        if not (reverse or abs(head - target_block) <= 1e-9):
            penalty += self.params.reposition_s
            if self.params.locate_s_per_gb > 0:
                distance_gb = self.spec.bytes_from_blocks(abs(head - target_block)) / (1024**3)
                penalty += distance_gb * self.params.locate_s_per_gb
            self.repositions += 1
        elif (
            self.params.stop_start_penalty_s > 0
            and self.sim._now - self._last_op_end > 1e-9
        ):
            penalty += self.params.stop_start_penalty_s
        return penalty, target_block if reverse else target_block + n_blocks

    def read_range(
        self,
        file: TapeFile,
        offset_blocks: float,
        n_blocks: float,
        done: Event | None = None,
        keys: bool = True,
    ):
        """Read ``n_blocks`` starting ``offset_blocks`` into ``file``.

        Returns a generator for ``yield from`` that returns the data.
        Given ``done``, the drive instead starts the read at once as an
        event op, and ``done`` triggers with the data, or fails with the
        op's failure, through the event queue (the overlapped prefetch
        of :func:`~repro.core.base.scan_tape`).  With ``keys=False`` the
        read is the same op, checked, counted and timed alike, but it
        slices out no keys and returns None: a hashing scan names its
        tuples by block range alone.
        """
        if done is None:
            return self._read(file, offset_blocks, n_blocks, keys)
        self._take(file, offset_blocks, n_blocks)
        data = file.slice_range(offset_blocks, n_blocks) if keys else None
        self._start_io(
            file.start_block + offset_blocks, n_blocks, "tape-read", None,
            lambda failure: done.succeed(data) if failure is None else done.fail(failure),
        )
        return done

    def _read(
        self, file: TapeFile, offset_blocks: float, n_blocks: float, keys: bool
    ) -> typing.Generator:
        self._take(file, offset_blocks, n_blocks)
        data = file.slice_range(offset_blocks, n_blocks) if keys else None
        yield from self._io(file.start_block + offset_blocks, n_blocks, "tape-read")
        return data

    def _take(self, file: TapeFile, offset_blocks: float, n_blocks: float) -> None:
        """Check the mount and the range, and count the read: every tape
        read passes through here."""
        self._check_mounted(file)
        check_range(file.n_blocks, offset_blocks, n_blocks)
        self.read_blocks += n_blocks

    def read_file(self, file: TapeFile) -> typing.Generator:
        """Read an entire file."""
        return (yield from self.read_range(file, 0.0, file.n_blocks))

    def append(self, file: TapeFile, chunk: DataChunk) -> typing.Generator:
        """Append ``chunk`` to ``file`` (must be the volume's last file)."""
        volume = self._check_mounted(file)
        if volume.files[-1] is not file:
            raise RuntimeError(
                f"file {file.name!r} is not at the end of volume {volume.name}; "
                "tape media is append-only"
            )
        if chunk.n_blocks > volume.free_blocks + 1e-9:
            requirement = (
                f"the Table 2 scratch requirement {volume.requirement} is violated"
                if volume.requirement
                else "the volume is full"
            )
            raise TapeFullError(
                f"volume {volume.name}: append of {chunk.n_blocks:.1f} blocks to "
                f"file {file.name!r} needs more than the {volume.free_blocks:.1f} "
                f"blocks available (capacity {volume.capacity_blocks:.1f}); "
                f"{requirement}"
            )
        self.write_blocks += chunk.n_blocks
        yield from self._io(file.end_block, chunk.n_blocks, "tape-write")
        file._append(chunk)

    def _check_mounted(self, file: TapeFile) -> TapeVolume:
        volume = self.volume
        if volume is None:
            raise RuntimeError(f"drive {self.name} has no volume loaded")
        if file.volume is not volume:
            raise RuntimeError(
                f"file {file.name!r} is on volume {file.volume.name}, but drive "
                f"{self.name} has {volume.name} loaded"
            )
        return volume
