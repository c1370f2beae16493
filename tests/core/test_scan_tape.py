"""``scan_tape`` at the edge of :func:`~repro.core.spec.scan_bounds`' tolerance.

``scan_bounds`` only cuts a piece while more than 1e-9 blocks remain,
and floating-point sums of a method's pieces can leave a last range
that small.  Such a range must read nothing in both modes, not crash
the overlapped scan.
"""

import types

import numpy as np
import pytest

from repro.core.base import scan_tape
from repro.simulator.engine import Simulator
from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.tape import TapeDrive, TapeVolume

MB = 1024 * 1024


def scan(n_blocks, overlap):
    """Scan ``n_blocks`` from block 2 of a 6-block file; return what happened."""
    sim = Simulator()
    drive = TapeDrive(sim, "tape", Bus(sim, "scsi", 10 * MB), BlockSpec())
    volume = TapeVolume("vol", 100.0)
    drive.load(volume)
    file = volume.create_file("data")
    file._append(DataChunk.from_keys(np.arange(60), 10))
    consumed = []

    def consume(data):
        consumed.append(data.n_blocks)
        yield sim.timeout(0)

    env = types.SimpleNamespace(sim=sim)
    sim.run(sim.process(scan_tape(env, drive, file, 2.0, n_blocks, 2.0, consume, overlap)))
    sim.run()
    return consumed, drive.read_blocks, sim.now


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("n_blocks", [1e-12, 5e-10, 1e-9])
def test_range_within_tolerance_is_empty(n_blocks, overlap):
    assert scan(n_blocks, overlap) == ([], 0.0, 0.0)


@pytest.mark.parametrize("overlap", [False, True])
def test_range_just_above_tolerance_is_one_chunk(overlap):
    consumed, read_blocks, now = scan(2e-9, overlap)
    assert consumed == [pytest.approx(0.0, abs=1e-6)]
    assert read_blocks == 2e-9
    assert now > 0.0


@pytest.mark.parametrize("overlap", [False, True])
def test_ordinary_range_is_chunked(overlap):
    consumed, read_blocks, _now = scan(3.0, overlap)
    assert consumed == [2.0, 1.0]
    assert read_blocks == 3.0
