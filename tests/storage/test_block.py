"""Block units, data chunks and the shared range slicer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.block import MB, BlockSpec, DataChunk, slice_chunks


class TestBlockSpec:
    def test_defaults(self):
        spec = BlockSpec()
        assert spec.block_bytes == 100 * 1024

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BlockSpec(block_bytes=0)

    def test_round_trip_conversions(self):
        spec = BlockSpec()
        assert spec.bytes_from_blocks(2.5) == pytest.approx(2.5 * spec.block_bytes)
        assert spec.mb_from_blocks(spec.blocks_from_mb(7.5)) == pytest.approx(7.5)

    def test_blocks_from_mb(self):
        spec = BlockSpec(block_bytes=MB)
        assert spec.blocks_from_mb(3.0) == pytest.approx(3.0)

    def test_tuples_per_block(self):
        spec = BlockSpec(block_bytes=100 * 1024)
        assert spec.tuples_per_block(2048) == 50
        assert spec.tuples_per_block(100 * 1024) == 1

    def test_tuple_too_large(self):
        spec = BlockSpec(block_bytes=1024)
        with pytest.raises(ValueError, match="does not fit"):
            spec.tuples_per_block(2048)

    def test_tuple_bytes_must_be_positive(self):
        with pytest.raises(ValueError):
            BlockSpec().tuples_per_block(0)


class TestDataChunk:
    def test_from_keys_packs_densely(self):
        chunk = DataChunk.from_keys(np.arange(100), tuples_per_block=50)
        assert chunk.n_tuples == 100
        assert chunk.n_blocks == pytest.approx(2.0)

    def test_empty(self):
        chunk = DataChunk.empty()
        assert chunk.n_tuples == 0
        assert chunk.n_blocks == 0.0

    def test_concat_sums_blocks(self):
        parts = [DataChunk.from_keys(np.arange(10), 5) for _ in range(3)]
        merged = DataChunk.concat(parts)
        assert merged.n_tuples == 30
        assert merged.n_blocks == pytest.approx(6.0)

    def test_concat_empty_list(self):
        assert DataChunk.concat([]).n_tuples == 0

    def test_nonempty_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            DataChunk(np.arange(5), 0.0)

    def test_negative_blocks_rejected(self):
        with pytest.raises(ValueError):
            DataChunk(np.empty(0, np.int64), -1.0)

    def test_keys_coerced_to_int64(self):
        chunk = DataChunk(np.array([1, 2, 3], dtype=np.int32), 1.0)
        assert chunk.keys.dtype == np.int64


class TestSliceChunks:
    def _chunks(self, sizes, tpb=10):
        return [
            DataChunk.from_keys(np.arange(start * 1000, start * 1000 + size * tpb), tpb)
            for start, size in enumerate(sizes)
        ]

    def test_slice_within_one_chunk(self):
        chunks = self._chunks([4.0])
        piece = slice_chunks(chunks, 4.0, 1.0, 2.0)
        assert piece.n_tuples == 20
        assert piece.n_blocks == pytest.approx(2.0)
        np.testing.assert_array_equal(piece.keys, np.arange(10, 30))

    def test_slice_spanning_chunks(self):
        chunks = self._chunks([2.0, 2.0])
        piece = slice_chunks(chunks, 4.0, 1.0, 2.0)
        assert piece.n_tuples == 20

    def test_out_of_range_raises(self):
        chunks = self._chunks([2.0])
        with pytest.raises(ValueError, match="beyond"):
            slice_chunks(chunks, 2.0, 1.0, 2.0)

    def test_negative_args_raise(self):
        with pytest.raises(ValueError):
            slice_chunks([], 0.0, -1.0, 1.0)

    @given(
        n_blocks=st.integers(min_value=1, max_value=40),
        n_cuts=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=60, deadline=None)
    def test_adjacent_slices_partition_all_keys(self, n_blocks, n_cuts, seed):
        """Reading a file in adjacent ranges must yield every tuple once."""
        tpb = 10
        keys = np.arange(n_blocks * tpb)
        chunks = [DataChunk.from_keys(keys, tpb)]
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.uniform(0, n_blocks, size=n_cuts))
        bounds = [0.0, *cuts.tolist(), float(n_blocks)]
        gathered = []
        for lo, hi in zip(bounds, bounds[1:]):
            piece = slice_chunks(chunks, n_blocks, lo, hi - lo)
            gathered.append(piece.keys)
        merged = np.concatenate(gathered)
        np.testing.assert_array_equal(merged, keys)
