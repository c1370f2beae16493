"""Magnetic disk model: arm, seek/rotation latency and space.

Matches the paper's secondary-storage assumptions: multi-block requests pay
one positioning delay (seek + rotational latency) and a per-byte transfer
cost; back-to-back requests against the same extent stream without
repositioning.  Section 3.2 argues positioning is negligible for requests of
30+ blocks — we model it anyway, which correctly degrades small random
bucket appends at tiny memory sizes (Figures 8–9).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.simulator.engine import Simulator
from repro.storage.block import MB, BlockSpec
from repro.storage.bus import Bus
from repro.storage.device import Device


class DiskFullError(RuntimeError):
    """Raised when a write would exceed the disk's capacity."""


@dataclasses.dataclass(frozen=True)
class DiskParameters:
    """Performance characteristics of one disk drive.

    Defaults approximate a mid-1990s SCSI disk (Quantum Fireball class):
    ~3.5 MB/s sustained transfer, ~11 ms average seek, 5400 RPM.
    """

    transfer_rate_mb_s: float = 3.5
    avg_seek_ms: float = 11.0
    rotational_latency_ms: float = 5.6
    near_seek_ms: float = 4.0

    def __post_init__(self):
        if not self.transfer_rate_mb_s > 0:
            raise ValueError("transfer rate must be positive")
        latencies = (self.avg_seek_ms, self.rotational_latency_ms, self.near_seek_ms)
        if not all(latency >= 0 for latency in latencies):
            raise ValueError("latencies must be non-negative (and not NaN)")

    @property
    def rate_bytes_s(self) -> float:
        """Sustained transfer rate in bytes per second."""
        return self.transfer_rate_mb_s * MB

    @property
    def positioning_s(self) -> float:
        """Seek plus rotational latency for a repositioned request."""
        return (self.avg_seek_ms + self.rotational_latency_ms) / 1000.0

    @property
    def near_positioning_s(self) -> float:
        """Short reposition within one region (track-to-track class)."""
        return self.near_seek_ms / 1000.0


class Disk(Device):
    """One disk drive: a single arm, a bus attachment and its space."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bus: Bus,
        spec: BlockSpec,
        capacity_blocks: float,
        params: DiskParameters | None = None,
    ):
        if capacity_blocks <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_blocks}")
        super().__init__(sim, name, bus, spec, params or DiskParameters())
        self._positioning_s = self.params.positioning_s
        self._near_positioning_s = self.params.near_positioning_s
        self.capacity_blocks = float(capacity_blocks)
        self.used_blocks = 0.0
        self.peak_used_blocks = 0.0

    @property
    def free_blocks(self) -> float:
        """Unused capacity in blocks."""
        return self.capacity_blocks - self.used_blocks

    def _reserve(self, n_blocks: float) -> None:
        if self.used_blocks + n_blocks > self.capacity_blocks + 1e-9:
            raise DiskFullError(
                f"disk {self.name}: write of {n_blocks:.1f} blocks needs more "
                f"than the {self.free_blocks:.1f} blocks free "
                f"({self.used_blocks:.1f}/{self.capacity_blocks:.1f} in use); "
                f"the join's disk budget (Table 2 requirement D) is exhausted"
            )
        self.used_blocks += n_blocks
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)

    def _release(self, n_blocks: float) -> None:
        self.used_blocks = max(0.0, self.used_blocks - n_blocks)

    def _lead_in(self, extent, n_blocks: float, near: int | None) -> tuple[float, typing.Any]:
        """Seek plus rotation, unless the arm last served ``extent``.

        ``extent`` is any object naming a region of the disk.  A burst
        (``near`` given) stands for ``near + 1`` small requests issued back
        to back — bucket appends, fragment reads — and always pays one full
        reposition plus ``near`` short ones; simulating it as one op keeps
        large experiments tractable.  The arm is at ``extent`` from the
        grant on, even if the transfer then fails.
        """
        if near is not None:
            lead_in = self._positioning_s + near * self._near_positioning_s
        elif self.position is extent:
            lead_in = 0.0
        else:
            lead_in = self._positioning_s
        self.position = extent
        return lead_in, extent
