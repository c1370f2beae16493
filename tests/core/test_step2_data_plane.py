"""Step II's data plane does each piece of join work once.

* One probe of a bucket's concatenated pieces equals the sum of one
  probe per piece (join results add up mod 2^64 in any order).
* A unit whose S bucket fails after some pops counts every popped piece
  exactly once across the restart, and builds its R bucket only once.
* On the Figure 5 frame, CDT-GH builds each non-empty R bucket once per
  join and probes once per resident bucket unit.
* The nested-block methods build the disk copy of R once per join and
  probe each S window once against it.
* A scan that only hashes a relation off tape slices no keys out of it.
* A disk extent's slice memo never serves content older than the
  latest write, bury or clear.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_join
from repro.core import base
from repro.core.base import GraceHashLayout, RBucket, join_bucket
from repro.core.environment import JoinEnvironment
from repro.core.spec import JoinSpec
from repro.experiments.config import (
    BASE_TAPE,
    DISK_1996,
    DISK_LIGHTNING,
    EXPERIMENT2_R_MB,
    EXPERIMENT2_S_MB,
    EXPERIMENT3_D_MB,
    EXPERIMENT3_R_MB,
    EXPERIMENT3_S_MB,
    ExperimentScale,
)
from repro.faults.checkpoint import run_unit
from repro.faults.errors import RetryExhaustedError
from repro.faults.plan import FaultPlan
from repro.relational.datagen import zipf_relation
from repro.relational.hashing import bucket_ids
from repro.relational.join_core import (
    BuildSide,
    JoinResult,
    hash_join,
    nested_loop_join,
    reference_join,
)
from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.disk import Disk
from repro.storage.disk_array import DiskArray
from repro.storage.tape import TapeFile

KEYS = st.integers(min_value=-(2**62), max_value=2**62) | st.integers(-8, 8)


class TestOneProbePerUnit:
    @settings(max_examples=200, deadline=None)
    @given(r=st.lists(KEYS, max_size=40), s=st.lists(KEYS, max_size=60), data=st.data())
    def test_probing_the_concatenation_equals_the_per_piece_sum(self, r, s, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(s)), max_size=8)))
        bounds = [0, *cuts, len(s)]
        pieces = [
            np.array(s[lo:hi], dtype=np.int64) for lo, hi in zip(bounds, bounds[1:])
        ]
        r_keys, s_keys = np.array(r, dtype=np.int64), np.array(s, dtype=np.int64)
        held = BuildSide(r_keys)
        per_piece = sum((held.probe(piece) for piece in pieces), JoinResult.zero())
        once = held.probe(np.concatenate(pieces))
        assert once == per_piece
        assert once == nested_loop_join(r_keys, s_keys)


class FailingBucket:
    """An S bucket of fixed pieces whose ``fail_at``-th pop fails once.

    A pop takes one simulated second and consumes its piece only when it
    succeeds, as the disk and tape buckets do; the failing pop consumes
    nothing.
    """

    def __init__(self, sim, pieces, fail_at):
        self.sim = sim
        self.pieces = list(pieces)
        self.fail_at = fail_at
        self.pops = 0

    def pop(self, max_blocks):
        yield self.sim.timeout(1.0)
        self.pops += 1
        if self.pops == self.fail_at:
            raise RetryExhaustedError("injected", "d0", "disk-read", 1)
        return self.pieces.pop(0) if self.pieces else None


N_PIECES = 4


@pytest.fixture
def unit_env(small_r, small_s):
    spec = JoinSpec(
        small_r, small_s, memory_blocks=10.0, disk_blocks=520.0, fault_plan=FaultPlan()
    )
    return JoinEnvironment(spec)


@pytest.mark.parametrize("fail_at", range(1, N_PIECES + 2))
def test_a_restarted_unit_counts_each_popped_piece_once(unit_env, fail_at):
    env = unit_env
    rng = np.random.default_rng(fail_at)
    r_keys = rng.integers(-20, 20, size=30)  # duplicates and negative keys
    s_keys = rng.integers(-20, 20, size=4 * 25)
    pieces = [DataChunk.from_keys(keys, 25) for keys in np.split(s_keys, N_PIECES)]
    tuples_per_block = 50

    def read(offset, n_blocks):
        yield env.sim.timeout(0.5)
        return DataChunk.from_keys(r_keys, tuples_per_block)

    r_bucket = RBucket(read, len(r_keys) / tuples_per_block)
    s_bucket = FailingBucket(env.sim, pieces, fail_at)
    unit = functools.partial(
        join_bucket, env, GraceHashLayout(env.spec), r_bucket, s_bucket
    )
    env.sim.run(env.sim.process(run_unit(env, "II.0.b0", unit)))

    assert env.checkpoint.restarts == 1
    assert env.accumulator.result() == hash_join(r_keys, s_keys)
    assert env.probed_keys == len(s_keys)
    assert env.builds == 1  # the restarted attempt reuses the build
    # One probe of what the failed attempt popped, one of the rest.
    assert env.probes == (fail_at > 1) + (fail_at - 1 < N_PIECES)
    assert env.memory.used_blocks == pytest.approx(0.0)


def fig5_spec(d_fraction):
    """The Figure 5 frame of the benchmark, at scale 0.05."""
    scale = ExperimentScale(scale=0.05, tuple_bytes=8192, seed=1)
    relation_r, relation_s = scale.relations(EXPERIMENT2_R_MB, EXPERIMENT2_S_MB)
    r_blocks = scale.relation_blocks(EXPERIMENT2_R_MB)
    return JoinSpec(
        relation_r, relation_s,
        memory_blocks=max(0.1 * r_blocks, 1.05 * math.sqrt(r_blocks)),
        disk_blocks=d_fraction * r_blocks, n_disks=scale.n_disks,
        disk_params=DISK_1996, tape_params_r=BASE_TAPE, tape_params_s=BASE_TAPE,
    )


def test_cdt_gh_builds_each_r_bucket_once_and_probes_once_per_unit(monkeypatch):
    units = [0]

    def counting_join_bucket(*args):
        units[0] += 1
        return (yield from join_bucket(*args))

    monkeypatch.setattr(base, "join_bucket", counting_join_bucket)
    spec = fig5_spec(1.25)
    stats = run_join(spec, method="CDT-GH")

    n_buckets = GraceHashLayout(spec).n_buckets
    non_empty = len(np.unique(bucket_ids(spec.relation_r.keys, n_buckets)))
    assert stats.output == reference_join(spec.relation_r, spec.relation_s)
    assert stats.iterations > 100  # the rescan regime of Figure 5
    # At this M some units take the spill path; they build and probe once too.
    assert stats.overflow_buckets > 0
    assert stats.builds == non_empty
    assert stats.probes == units[0] > stats.iterations
    assert stats.probed_keys == spec.relation_s.n_tuples


def exp3_spec(m_fraction=0.5):
    """The Experiment 3 frame of the benchmark (dense keys), at scale 0.03."""
    scale = ExperimentScale(scale=0.03, tuple_bytes=256, seed=1)
    relation_r, relation_s = scale.relations(EXPERIMENT3_R_MB, EXPERIMENT3_S_MB)
    return JoinSpec(
        relation_r, relation_s,
        memory_blocks=m_fraction * scale.relation_blocks(EXPERIMENT3_R_MB),
        disk_blocks=scale.blocks(EXPERIMENT3_D_MB), n_disks=scale.n_disks,
        disk_params=DISK_LIGHTNING, tape_params_r=BASE_TAPE, tape_params_s=BASE_TAPE,
    )


def zipf_spec():
    """A skewed pair with duplicate keys on both sides, many iterations."""
    relation_r = zipf_relation("R", 0.5, tuple_bytes=256, key_space=300, seed=1)
    relation_s = zipf_relation("S", 5.0, tuple_bytes=256, key_space=300, seed=2)
    assert len(np.unique(relation_r.keys)) < relation_r.n_tuples
    assert len(np.unique(relation_s.keys)) < relation_s.n_tuples
    return JoinSpec(
        relation_r, relation_s,
        memory_blocks=0.5 * relation_r.n_blocks, disk_blocks=20.0,
    )


NESTED_BLOCK = ("DT-NB", "CDT-NB/MB", "CDT-NB/DB")


@pytest.mark.parametrize("make_spec", [exp3_spec, zipf_spec], ids=["exp3", "zipf"])
@pytest.mark.parametrize("method", NESTED_BLOCK)
def test_nested_block_builds_r_once_and_probes_once_per_iteration(method, make_spec):
    spec = make_spec()
    stats = run_join(spec, method=method)

    assert stats.output == reference_join(spec.relation_r, spec.relation_s)
    assert stats.iterations > 1
    assert stats.builds == 1
    assert stats.probes == stats.iterations
    assert stats.probed_keys == spec.relation_s.n_tuples


@pytest.mark.parametrize("method", ["DT-GH", "CDT-GH"])
def test_hashing_scans_slice_no_keys(method, monkeypatch):
    # Both methods read tape only to hash it into buckets.
    slices = [0]
    slice_range = TapeFile.slice_range

    def counting_slice_range(tape_file, offset_blocks, n_blocks):
        slices[0] += 1
        return slice_range(tape_file, offset_blocks, n_blocks)

    monkeypatch.setattr(TapeFile, "slice_range", counting_slice_range)
    spec = exp3_spec()
    stats = run_join(spec, method=method)

    assert stats.output == reference_join(spec.relation_r, spec.relation_s)
    assert stats.tape_r_read_blocks + stats.tape_s_read_blocks > 0
    assert slices[0] == 0


@pytest.fixture
def array(sim):
    bus = Bus(sim, "scsi")
    return DiskArray(sim, [Disk(sim, "d0", bus, BlockSpec(), capacity_blocks=100.0)])


def chunk_of(n_blocks, start, tpb=10):
    return DataChunk.from_keys(np.arange(start, start + round(n_blocks * tpb)), tpb)


class TestSliceMemo:
    def test_a_repeated_slice_is_the_same_chunk(self, sim, array):
        extent = array.allocate("x")
        sim.run(sim.process(array.write(extent, chunk_of(4.0, 0))))
        first = extent.slice_range(0.0, 4.0)
        assert extent.slice_range(0.0, 4.0) is first
        assert not first.keys.flags.writeable  # shared, so never written
        assert extent.slice_range(1.0, 2.0) is not first

    def test_no_slice_outlives_a_write_a_bury_or_a_clear(self, sim, array):
        extent = array.allocate("x")
        sim.run(sim.process(array.write(extent, chunk_of(4.0, 0))))
        assert list(extent.slice_range(0.0, 4.0).keys) == list(range(40))

        sim.run(sim.process(array.write(extent, chunk_of(4.0, 100))))
        both = extent.slice_range(0.0, 8.0)
        assert list(both.keys) == list(range(40)) + list(range(100, 140))
        assert both.n_blocks == 8.0

        first = next(extent.live_chunks())
        extent._bury([first])
        assert list(extent.slice_range(0.0, 4.0).keys) == list(range(100, 140))

        array.discard_content(extent)
        assert extent.slice_range(0.0, 0.0).n_tuples == 0
        sim.run(sim.process(array.write(extent, chunk_of(4.0, 200))))
        assert list(extent.slice_range(0.0, 4.0).keys) == list(range(200, 240))

    def test_free_drops_the_memo(self, sim, array):
        extent = array.allocate("x")
        sim.run(sim.process(array.write(extent, chunk_of(4.0, 0))))
        extent.slice_range(0.0, 4.0)
        array.free(extent)
        assert extent._memo is None
