"""JoinSpec validation and JoinStats derived metrics."""

import pytest

from repro.core.spec import JoinSpec, ceil_div
from repro.relational.datagen import uniform_relation
from repro.storage.block import BlockSpec
from repro.storage.tape import TapeDriveParameters


class TestJoinSpecValidation:
    def test_r_must_be_smaller(self, small_r, small_s):
        with pytest.raises(ValueError, match="smaller relation"):
            JoinSpec(small_s, small_r, memory_blocks=10, disk_blocks=100)

    def test_memory_must_be_below_r(self, small_r, small_s):
        with pytest.raises(ValueError, match="M < |R|".replace("|", r"\|")):
            JoinSpec(small_r, small_s, memory_blocks=100.0, disk_blocks=100)

    def test_positive_budgets(self, small_r, small_s):
        with pytest.raises(ValueError):
            JoinSpec(small_r, small_s, memory_blocks=0, disk_blocks=100)
        with pytest.raises(ValueError):
            JoinSpec(small_r, small_s, memory_blocks=10, disk_blocks=0)
        with pytest.raises(ValueError):
            JoinSpec(small_r, small_s, memory_blocks=10, disk_blocks=100, n_disks=0)

    def test_nan_budgets_are_bad_input(self, small_r, small_s):
        with pytest.raises(ValueError, match="memory budget M"):
            JoinSpec(small_r, small_s, memory_blocks=float("nan"), disk_blocks=100)
        with pytest.raises(ValueError, match="disk budget D"):
            JoinSpec(small_r, small_s, memory_blocks=10, disk_blocks=float("nan"))

    def test_mismatched_block_specs_rejected(self, small_r):
        other = uniform_relation(
            "S", 20.0, tuple_bytes=4096, spec=BlockSpec(block_bytes=50 * 1024)
        )
        with pytest.raises(ValueError, match="block geometry"):
            JoinSpec(small_r, other, memory_blocks=10, disk_blocks=100)


class TestDerivedQuantities:
    def _spec(self, small_r, small_s, **kwargs):
        defaults = dict(memory_blocks=10.0, disk_blocks=100.0)
        defaults.update(kwargs)
        return JoinSpec(small_r, small_s, **defaults)

    def test_sizes(self, small_r, small_s):
        spec = self._spec(small_r, small_s)
        assert spec.size_r_blocks == pytest.approx(small_r.n_blocks)
        assert spec.size_s_blocks == pytest.approx(small_s.n_blocks)

    def test_tape_rates_follow_compression(self, small_r, small_s):
        tape = TapeDriveParameters(native_rate_mb_s=1.5, compression_ratio=0.25)
        spec = self._spec(small_r, small_s, tape_params_s=tape)
        blocks_per_mb = 1024 * 1024 / spec.block_spec.block_bytes
        assert spec.tape_rate_s_blocks_s == pytest.approx(2.0 * blocks_per_mb)

    def test_disk_rate_aggregates(self, small_r, small_s):
        spec = self._spec(small_r, small_s, n_disks=2)
        blocks_per_mb = 1024 * 1024 / spec.block_spec.block_bytes
        assert spec.disk_rate_blocks_s == pytest.approx(7.0 * blocks_per_mb)

    def test_optimum_and_bare_read(self, small_r, small_s):
        spec = self._spec(small_r, small_s)
        assert spec.optimum_join_s == pytest.approx(
            spec.size_s_blocks / spec.tape_rate_s_blocks_s
        )
        assert spec.bare_read_s > spec.optimum_join_s

    def test_default_scratch_is_ample(self, small_r, small_s):
        spec = self._spec(small_r, small_s)
        assert spec.effective_scratch_r() > spec.size_s_blocks
        assert spec.effective_scratch_s() > spec.size_s_blocks

    def test_explicit_scratch_respected(self, small_r, small_s):
        spec = self._spec(small_r, small_s, scratch_r_blocks=5.0, scratch_s_blocks=0.0)
        assert spec.effective_scratch_r() == 5.0
        assert spec.effective_scratch_s() == 0.0


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(10.0, 5.0) == 2

    def test_rounds_up(self):
        assert ceil_div(10.1, 5.0) == 3

    def test_tolerates_dust(self):
        assert ceil_div(10.0 + 1e-12, 5.0) == 2

    def test_minimum_one(self):
        assert ceil_div(0.0, 5.0) == 1

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            ceil_div(10.0, 0.0)
