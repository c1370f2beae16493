"""SystemParameters validation and derivation."""

import math

import pytest

from repro.core.spec import JoinSpec
from repro.costmodel.parameters import SystemParameters


def params(**overrides):
    base = dict(
        size_r_blocks=100.0,
        size_s_blocks=1000.0,
        memory_blocks=20.0,
        disk_blocks=300.0,
        disk_rate_blocks_s=40.0,
        tape_rate_blocks_s=20.0,
    )
    base.update(overrides)
    return SystemParameters(**base)


class TestValidation:
    def test_r_must_be_smaller(self):
        with pytest.raises(ValueError):
            params(size_r_blocks=2000.0)

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            params(size_r_blocks=0.0)
        with pytest.raises(ValueError):
            params(memory_blocks=0.0)
        with pytest.raises(ValueError):
            params(disk_rate_blocks_s=0.0)


class TestDerived:
    def test_optimum_and_bare_read(self):
        p = params()
        assert p.optimum_join_s == pytest.approx(50.0)
        assert p.bare_read_s == pytest.approx(55.0)

    def test_separate_r_drive_rate(self):
        p = params(tape_rate_r_blocks_s=10.0)
        assert p.rate_tape_r == 10.0
        assert p.tape_rate_blocks_s == 20.0

    def test_default_scratch_is_infinite(self):
        p = params()
        assert math.isinf(p.scratch_r_blocks)

    def test_from_spec_round_trip(self, small_r, small_s):
        spec = JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=120.0)
        p = SystemParameters.from_spec(spec)
        assert p.size_r_blocks == pytest.approx(spec.size_r_blocks)
        assert p.size_s_blocks == pytest.approx(spec.size_s_blocks)
        assert p.memory_blocks == spec.memory_blocks
        assert p.disk_blocks == spec.disk_blocks
        # Default devices: 1.5 MB/s native tape at 25 % compression is
        # 2.0 MB/s; two 3.5 MB/s disks aggregate to 7.0 MB/s.
        blocks_per_mb = 1024 * 1024 / spec.block_spec.block_bytes
        assert p.tape_rate_blocks_s == pytest.approx(2.0 * blocks_per_mb)
        assert p.rate_tape_r == pytest.approx(2.0 * blocks_per_mb)
        assert p.disk_rate_blocks_s == pytest.approx(2 * 3.5 * blocks_per_mb)
        assert p.optimum_join_s == pytest.approx(
            spec.size_s_blocks / (2.0 * blocks_per_mb)
        )
        assert p.scratch_r_blocks == spec.effective_scratch_r()
        assert p.scratch_s_blocks == spec.effective_scratch_s()
