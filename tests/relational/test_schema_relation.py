"""Relations: validation, sizes and key arrays."""

import numpy as np
import pytest

from repro.relational.relation import Relation
from repro.storage.block import BlockSpec


class TestRelation:
    def _relation(self, n_tuples=500, tuple_bytes=2048):
        return Relation("r", tuple_bytes, np.arange(n_tuples), BlockSpec())

    def test_validation(self):
        with pytest.raises(ValueError, match="tuple_bytes must be positive"):
            self._relation(tuple_bytes=0)
        with pytest.raises(ValueError, match="needs a name"):
            Relation("", 100, np.arange(10), BlockSpec())
        with pytest.raises(ValueError, match="does not fit"):
            Relation("t", 2048, np.arange(10), BlockSpec(block_bytes=1024))

    def test_sizes(self):
        relation = self._relation(500)
        assert relation.n_tuples == 500
        assert relation.tuples_per_block == 50
        assert relation.n_blocks == pytest.approx(10.0)
        assert relation.size_mb == pytest.approx(500 * 2048 / (1024 * 1024))

    def test_fractional_blocks(self):
        relation = self._relation(525)
        assert relation.n_blocks == pytest.approx(10.5)

    def test_empty_relation_rejected(self):
        with pytest.raises(ValueError, match="no tuples"):
            self._relation(0)

    def test_keys_are_read_only_and_the_callers_array_is_not(self):
        keys = np.arange(100, dtype=np.int64)
        relation = Relation("r", 2048, keys, BlockSpec())
        with pytest.raises(ValueError, match="read-only"):
            relation.keys[0] = 7
        keys[1] = 7  # the caller's own array stays writable
        assert keys.flags.writeable

    def test_as_chunk_holds_everything(self):
        relation = self._relation(100)
        chunk = relation.as_chunk()
        assert chunk.n_tuples == 100
        np.testing.assert_array_equal(chunk.keys, relation.keys)
