"""A Grace-Hash join partitions each relation it hashes once.

Step I, every Step II iteration and every hash-to-tape group scan look
their buckets up in the join's one bucket index per relation, so a join
calls :func:`~repro.relational.hashing.partition_keys` once for R and
once for S, whatever its scan and flush counts.
"""

import dataclasses
import sys

import pytest

from repro.core.base import GraceHashLayout
from repro.core.baselines import StagedDiskJoin
from repro.core.registry import method_by_symbol
from repro.core.spec import JoinSpec
from repro.experiments.config import (
    BASE_TAPE,
    DISK_LIGHTNING,
    EXPERIMENT3_D_MB,
    EXPERIMENT3_R_MB,
    EXPERIMENT3_S_MB,
    ExperimentScale,
)
from repro.relational import hashing
from repro.relational.join_core import reference_join


@pytest.fixture(scope="module")
def exp3_spec():
    """The Experiment 3 frame at M = 0.5|R|, dense keys (scale 0.03)."""
    scale = ExperimentScale(scale=0.03, tuple_bytes=256, seed=1)
    relation_r, relation_s = scale.relations(EXPERIMENT3_R_MB, EXPERIMENT3_S_MB)
    return JoinSpec(
        relation_r, relation_s,
        memory_blocks=0.5 * scale.relation_blocks(EXPERIMENT3_R_MB),
        disk_blocks=scale.blocks(EXPERIMENT3_D_MB),
        n_disks=scale.n_disks, disk_params=DISK_LIGHTNING,
        tape_params_r=BASE_TAPE, tape_params_s=BASE_TAPE,
    )


@pytest.mark.parametrize("symbol", ["DT-GH", "CDT-GH", "CTT-GH", "TT-GH", "STAGE-GH"])
def test_one_partition_per_relation(symbol, exp3_spec, monkeypatch):
    """R and S at one bucket count: two ``partition_keys`` calls in all
    (CDT-GH made 573 when every staging flush partitioned its own pool)."""
    calls = []
    original = hashing.partition_keys

    def counted(keys, n_buckets, salt=0):
        calls.append((len(keys), n_buckets))
        return original(keys, n_buckets, salt)

    # Every module holding the function by name, as a profiler would.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "partition_keys", None) is original:
            monkeypatch.setattr(module, "partition_keys", counted)
    method = StagedDiskJoin() if symbol == "STAGE-GH" else method_by_symbol(symbol)
    spec = exp3_spec
    if symbol == "STAGE-GH":
        spec = dataclasses.replace(spec, disk_blocks=method.requirements(spec).disk_blocks)
    stats = method.run(spec)
    assert stats.output == reference_join(spec.relation_r, spec.relation_s)
    n_buckets = GraceHashLayout(spec).n_buckets
    assert sorted(calls) == sorted(
        [(spec.relation_r.n_tuples, n_buckets), (spec.relation_s.n_tuples, n_buckets)]
    )
