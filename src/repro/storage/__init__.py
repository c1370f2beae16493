"""Device models for the tertiary storage hierarchy.

This package is the hardware substrate the paper's testbed provided:
magnetic tape drives (Quantum DLT-4000 class), SCSI disks, SCSI buses and a
tape library.  Devices charge simulated time for every operation and move
real data (numpy key arrays), so join methods built on top are measured
*and* verified.
"""

from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.disk import Disk, DiskParameters
from repro.storage.disk_array import DiskArray, StripedExtent
from repro.storage.tape import TapeDrive, TapeDriveParameters, TapeFile, TapeVolume
from repro.storage.library import TapeLibrary
from repro.storage.hierarchy import StorageConfig, StorageSystem

__all__ = [
    "BlockSpec",
    "Bus",
    "DataChunk",
    "Disk",
    "DiskArray",
    "DiskParameters",
    "StorageConfig",
    "StorageSystem",
    "StripedExtent",
    "TapeDrive",
    "TapeDriveParameters",
    "TapeFile",
    "TapeLibrary",
    "TapeVolume",
]
