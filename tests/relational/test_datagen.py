"""Synthetic workload generators."""

import numpy as np
import pytest

from repro.relational.datagen import (
    fk_pk_pair,
    self_join_relation,
    uniform_relation,
    zipf_relation,
)


class TestUniform:
    def test_target_size_is_met(self):
        relation = uniform_relation("r", 10.0, tuple_bytes=2048)
        assert relation.size_mb == pytest.approx(10.0, rel=1e-3)

    def test_seed_determinism(self):
        a = uniform_relation("r", 1.0, seed=5)
        b = uniform_relation("r", 1.0, seed=5)
        np.testing.assert_array_equal(a.keys, b.keys)
        c = uniform_relation("r", 1.0, seed=6)
        assert not np.array_equal(a.keys, c.keys)

    def test_key_space_respected(self):
        relation = uniform_relation("r", 1.0, key_space=100, seed=1)
        assert relation.keys.min() >= 0
        assert relation.keys.max() < 100

    def test_default_key_space_gives_duplicates_and_misses(self):
        relation = uniform_relation("r", 5.0, seed=2)
        distinct = len(np.unique(relation.keys))
        assert distinct < relation.n_tuples  # some duplicates
        assert distinct > relation.n_tuples // 2  # but far from constant

    def test_too_small_relation_rejected(self):
        with pytest.raises(ValueError):
            uniform_relation("r", 0.000001, tuple_bytes=100 * 1024)

    def test_bad_key_space(self):
        with pytest.raises(ValueError):
            uniform_relation("r", 1.0, key_space=0)


class TestZipf:
    def test_skew_validation(self):
        with pytest.raises(ValueError):
            zipf_relation("r", 1.0, skew=1.0)

    @pytest.mark.parametrize("key_space", [0, -5])
    def test_bad_key_space(self, key_space):
        with pytest.raises(ValueError, match="key_space must be >= 1"):
            zipf_relation("r", 1.0, key_space=key_space)

    def test_zipf_is_more_skewed_than_uniform(self):
        uniform = uniform_relation("u", 2.0, seed=3)
        zipf = zipf_relation("z", 2.0, skew=1.3, seed=3)
        def top_share(keys):
            _vals, counts = np.unique(keys, return_counts=True)
            counts.sort()
            return counts[-10:].sum() / len(keys)
        assert top_share(zipf.keys) > 2 * top_share(uniform.keys)


class TestFkPk:
    def test_r_keys_are_distinct(self):
        r, _s = fk_pk_pair("r", "s", 1.0, 4.0, seed=4)
        assert len(np.unique(r.keys)) == r.n_tuples

    def test_full_match_fraction(self):
        r, s = fk_pk_pair("r", "s", 1.0, 4.0, match_fraction=1.0, seed=4)
        assert np.isin(s.keys, r.keys).all()

    def test_zero_match_fraction(self):
        r, s = fk_pk_pair("r", "s", 1.0, 4.0, match_fraction=0.0, seed=4)
        assert not np.isin(s.keys, r.keys).any()

    def test_partial_match_fraction(self):
        r, s = fk_pk_pair("r", "s", 1.0, 8.0, match_fraction=0.6, seed=4)
        hit_rate = np.isin(s.keys, r.keys).mean()
        assert 0.5 < hit_rate < 0.7

    def test_match_fraction_validation(self):
        with pytest.raises(ValueError):
            fk_pk_pair("r", "s", 1.0, 2.0, match_fraction=1.5)


class TestSelfJoin:
    def test_duplicate_multiplicity(self):
        relation = self_join_relation("r", 2.0, duplicates=8, seed=5)
        _vals, counts = np.unique(relation.keys, return_counts=True)
        assert counts.mean() == pytest.approx(8.0, rel=0.2)

    def test_duplicates_validation(self):
        with pytest.raises(ValueError):
            self_join_relation("r", 1.0, duplicates=0)
