"""JoinSpec validation and JoinStats derived metrics."""

import pytest

from repro.core.spec import JoinSpec, scan_bounds
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


class TestScanBounds:
    def test_exact_multiple(self):
        assert scan_bounds(0.0, 10.0, 5.0) == [(0.0, 5.0), (5.0, 5.0)]

    def test_remainder_is_a_last_short_piece(self):
        assert scan_bounds(2.0, 10.5, 5.0) == [(2.0, 5.0), (7.0, 5.0), (12.0, 0.5)]

    def test_remainder_within_tolerance_is_dropped(self):
        assert scan_bounds(0.0, 10.0 + 1e-12, 5.0) == [(0.0, 5.0), (5.0, 5.0)]

    def test_empty_range_has_no_pieces(self):
        assert scan_bounds(3.0, 0.0, 5.0) == []

    def test_reverse_visits_the_same_pieces_back_to_front(self):
        assert scan_bounds(0.0, 10.5, 5.0, reverse=True) == [
            (10.0, 0.5), (5.0, 5.0), (0.0, 5.0)
        ]

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            scan_bounds(0.0, 10.0, 0.0)
