"""Behavioural properties: iteration counts, scan counts, concurrency.

These check the algorithmic structure the paper describes — how many
times each method reads R, how iteration counts respond to the budgets,
and that the concurrent variants actually beat their sequential
counterparts through I/O overlap.
"""

import math

import pytest

from repro.core.base import GraceHashLayout
from repro.core.registry import method_by_symbol
from repro.core.spec import JoinSpec
from repro.experiments.config import (
    EXPERIMENT3_D_MB,
    EXPERIMENT3_R_MB,
    EXPERIMENT3_S_MB,
    ExperimentScale,
)
from repro.relational.datagen import uniform_relation
from repro.simulator.events import AllOf
from repro.simulator.process import Process


@pytest.fixture(scope="module")
def relations():
    r = uniform_relation("R", 5.0, tuple_bytes=4096, seed=11)
    s = uniform_relation("S", 20.0, tuple_bytes=4096, seed=12, key_space=4 * r.n_tuples)
    return r, s


def run(symbol, relations, memory=10.0, disk=130.0, **kwargs):
    r, s = relations
    spec = JoinSpec(r, s, memory_blocks=memory, disk_blocks=disk, **kwargs)
    return method_by_symbol(symbol).run(spec)


class TestIterationCounts:
    def test_dt_nb_iterations_follow_memory(self, relations):
        _r, s = relations
        stats = run("DT-NB", relations, memory=10.0)
        assert stats.iterations == math.ceil(s.n_blocks / (0.9 * 10.0))

    def test_cdt_nb_mb_doubles_iterations(self, relations):
        plain = run("DT-NB", relations, memory=10.0)
        halved = run("CDT-NB/MB", relations, memory=10.0)
        assert halved.iterations == pytest.approx(2 * plain.iterations, abs=1)

    def test_grace_hash_iterations_follow_disk(self, relations):
        r, s = relations
        stats = run("CDT-GH", relations, disk=r.n_blocks + 40.0)
        assert stats.iterations == math.ceil(s.n_blocks / 40.0)

    def test_ctt_gh_iterations_use_whole_disk(self, relations):
        _r, s = relations
        stats = run("CTT-GH", relations, disk=50.0)
        assert stats.iterations == math.ceil(s.n_blocks / 50.0)

    def test_more_memory_fewer_nb_iterations(self, relations):
        small = run("DT-NB", relations, memory=8.0)
        large = run("DT-NB", relations, memory=40.0)
        assert large.iterations < small.iterations


class TestRScanCounts:
    def test_nb_scans_r_once_per_iteration(self, relations):
        stats = run("DT-NB", relations, memory=10.0)
        assert stats.r_scans == pytest.approx(stats.iterations + 1)  # + tape copy

    def test_tt_gh_reads_r_least(self, relations):
        """TT-GH reads R ⌈|R|/D⌉ times for hashing plus once for the
        merge — far fewer passes than the iterative methods."""
        tt = run("TT-GH", relations)
        nb = run("DT-NB", relations, memory=10.0)
        assert tt.r_scans < nb.r_scans

    def test_ctt_gh_rescans_grow_with_smaller_disk(self, relations):
        big = run("CTT-GH", relations, disk=60.0)
        small = run("CTT-GH", relations, disk=20.0)
        assert small.r_scans > big.r_scans


class TestConcurrencyWins:
    def test_cdt_gh_beats_dt_gh(self, relations):
        sequential = run("DT-GH", relations)
        concurrent = run("CDT-GH", relations)
        assert concurrent.response_s < sequential.response_s
        # Same data volume moved — the win is overlap, not less work.
        assert concurrent.disk_traffic_blocks == pytest.approx(
            sequential.disk_traffic_blocks, rel=0.02
        )

    def test_cdt_nb_db_beats_dt_nb_with_same_iterations(self, relations):
        sequential = run("DT-NB", relations, memory=10.0)
        concurrent = run("CDT-NB/DB", relations, memory=10.0)
        assert concurrent.iterations == sequential.iterations
        assert concurrent.response_s < sequential.response_s

    def test_db_variant_routes_s_through_disk(self, relations):
        _r, s = relations
        memory_only = run("CDT-NB/MB", relations, memory=10.0)
        disk_buffered = run("CDT-NB/DB", relations, memory=10.0)
        extra = disk_buffered.disk_traffic_blocks - 2 * s.n_blocks
        # DB moved all of S through disk twice (write + read back).
        assert extra > 0


class TestStatsConsistency:
    @pytest.mark.parametrize(
        "symbol", ["DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH", "CTT-GH", "TT-GH"]
    )
    def test_phases_sum_to_response(self, symbol, relations):
        stats = run(symbol, relations)
        assert stats.step1_s + stats.step2_s == pytest.approx(stats.response_s)
        assert 0 < stats.step1_s < stats.response_s

    def test_tape_reads_cover_both_relations(self, relations):
        r, s = relations
        stats = run("DT-NB", relations, memory=10.0)
        assert stats.tape_r_read_blocks == pytest.approx(r.n_blocks)
        assert stats.tape_s_read_blocks == pytest.approx(s.n_blocks)

    def test_overhead_and_relative_cost_metrics(self, relations):
        stats = run("CDT-GH", relations)
        assert stats.join_overhead > 0
        assert stats.relative_cost > 1
        assert stats.optimum_join_s < stats.bare_read_s < stats.response_s


class TestGraceHashLayout:
    def test_bucket_count_targets_fraction_of_memory(self, relations):
        r, s = relations
        spec = JoinSpec(r, s, memory_blocks=10.0, disk_blocks=130.0)
        layout = GraceHashLayout(spec)
        assert layout.n_buckets >= r.n_blocks / (0.5 * 10.0)
        assert spec.size_r_blocks / layout.n_buckets <= 0.5 * 10.0

    def test_memory_shares_sum_below_budget(self, relations):
        r, s = relations
        spec = JoinSpec(r, s, memory_blocks=10.0, disk_blocks=130.0)
        layout = GraceHashLayout(spec)
        total = (
            layout.read_staging_blocks
            + layout.write_staging_blocks
            + layout.bucket_memory_blocks
            + layout.probe_blocks
        )
        assert total <= 10.0 + 1e-9


class TestMemoryDoubleBuffering:
    """CDT-NB/MB's Step II is one overlapped tape scan (Section 5.1.3)."""

    def test_step_two_needs_no_helper_process(self, relations, monkeypatch):
        built = []
        for cls in (Process, AllOf):

            def counting_init(event, *args, _init=cls.__init__, **kwargs):
                built.append(type(event).__name__)
                _init(event, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        stats = run("CDT-NB/MB", relations, memory=10.0)
        assert built == ["Process"]  # the method's own
        assert stats.iterations == math.ceil(relations[1].n_blocks / (0.45 * 10.0))

    @pytest.mark.parametrize("fraction", [0.5, 0.7, 0.9])
    def test_two_s_buffers_and_the_r_window_fill_memory(self, fraction):
        # The Experiment 3 frame, where booking each S chunk as it was
        # read let the ledger drift up to 9e-13 blocks above M.
        scale = ExperimentScale(scale=0.03, tuple_bytes=256)
        r_blocks = scale.relation_blocks(EXPERIMENT3_R_MB)
        spec = JoinSpec(
            *scale.relations(EXPERIMENT3_R_MB, EXPERIMENT3_S_MB),
            memory_blocks=fraction * r_blocks,
            disk_blocks=scale.blocks(EXPERIMENT3_D_MB),
        )
        stats = method_by_symbol("CDT-NB/MB").run(spec)
        assert abs(stats.peak_memory_blocks - spec.memory_blocks) <= math.ulp(
            spec.memory_blocks
        )
