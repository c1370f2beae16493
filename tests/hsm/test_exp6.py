"""Experiment 6 driver: Zipfian workload, curves, sweep-task identity."""

import json

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.exp6_hsm import (
    EXPERIMENT6_DIMENSIONS,
    experiment6_config,
    run_experiment6,
    zipf_weights,
    zipfian_workload,
)
from repro.sweep import task_fingerprint
from repro.sweep.runner import SweepRunner
from repro.sweep.tasks import service_task


class TestWorkload:
    def test_zipf_weights_shape(self):
        assert zipf_weights(4, 0.0) == [1.0, 1.0, 1.0, 1.0]
        skewed = zipf_weights(4, 1.0)
        assert skewed == sorted(skewed, reverse=True)
        assert skewed[0] == 1.0 and skewed[3] == pytest.approx(0.25)

    def test_zipf_weights_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(4, -0.5)

    def test_workload_is_deterministic_per_seed(self):
        first = zipfian_workload(8, skew=0.8, seed=3)
        again = zipfian_workload(8, skew=0.8, seed=3)
        assert [r.volume_r for r in first] == [r.volume_r for r in again]
        other = zipfian_workload(8, skew=0.8, seed=4)
        assert [r.volume_r for r in first] != [r.volume_r for r in other]

    def test_workload_pins_the_cacheable_method(self):
        assert all(r.method == "CDT-GH" for r in zipfian_workload(6))

    def test_skew_concentrates_on_the_hot_relations(self):
        flat = {r.volume_r for r in zipfian_workload(24, skew=0.0, seed=0)}
        hot = {r.volume_r for r in zipfian_workload(24, skew=3.0, seed=0)}
        assert len(hot) < len(flat)
        assert EXPERIMENT6_DIMENSIONS[0][0] in hot  # rank 1 dominates

    def test_workload_rejects_empty(self):
        with pytest.raises(ValueError):
            zipfian_workload(0)


class TestConfig:
    def test_zero_capacity_means_no_cache(self):
        scale = ExperimentScale(scale=0.05)
        assert experiment6_config(scale, 0.0).cache is None
        config = experiment6_config(scale, 500.0, cache_policy="cost")
        assert config.cache.capacity_mb == 500.0
        assert config.cache.policy == "cost"


class TestSweepIdentity:
    def test_cache_size_is_part_of_the_fingerprint(self):
        scale = ExperimentScale(scale=0.05)
        workload = zipfian_workload(4)
        small = service_task("fifo", workload, experiment6_config(scale, 250.0))
        large = service_task("fifo", workload, experiment6_config(scale, 500.0))
        assert task_fingerprint(small.kind, small.payload) != task_fingerprint(
            large.kind, large.payload
        )


class TestDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment6(
            scale=ExperimentScale(scale=0.05),
            cache_sizes=(0.0, 500.0),
            skews=(0.8,),
            n_jobs=8,
            runner=SweepRunner(),
        )

    def test_curves_cover_the_grid(self, result):
        assert result.cache_sizes == (0.0, 500.0)
        assert set(result.series) == {0.8}
        points = result.series[0.8]
        assert [p.cache_mb for p in points] == [0.0, 500.0]

    def test_cache_on_hits_and_beats_cache_off(self, result):
        off, on = result.series[0.8]
        assert off.hit_ratio == 0.0 and off.tape_mb_avoided == 0.0
        assert on.hit_ratio > 0.0
        assert on.makespan_s < off.makespan_s

    def test_render_shows_both_curve_tables(self, result):
        rendered = result.render()
        assert "makespan (s):" in rendered
        assert "hit ratio:" in rendered
        assert "cache 0 MB = disabled" in rendered

    def test_to_dict_is_json_ready(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["cache_sizes"] == [0.0, 500.0]
        assert "0.8" in payload["series"]
        assert len(payload["series"]["0.8"]) == 2
