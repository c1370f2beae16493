"""Experiment 5 driver: curves, sweep-cache round trips, CLI wiring."""

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.exp5_service import (
    EXPERIMENT5_POLICIES,
    run_experiment5,
    service_workload,
    workload_sizes,
)
from repro.sweep.cache import SweepCache
from repro.sweep.runner import SweepRunner
from repro.sweep import task_fingerprint
from repro.sweep.tasks import service_task


class TestWorkload:
    def test_sizes_step_by_two(self):
        assert workload_sizes(10) == (2, 4, 6, 8, 10)
        assert workload_sizes(1) == (1,)

    def test_workload_interleaves_the_dimensions(self):
        volumes = [r.volume_r for r in service_workload(4)]
        assert volumes == ["dim-a", "dim-b", "dim-a", "dim-b"]

    def test_workload_rejects_empty(self):
        with pytest.raises(ValueError):
            service_workload(0)


class TestDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment5(
            scale=ExperimentScale(scale=0.05),
            max_jobs=6,
            runner=SweepRunner(),
        )

    def test_curves_cover_every_policy_and_size(self, result):
        assert result.sizes == (2, 4, 6)
        assert set(result.series) == set(EXPERIMENT5_POLICIES)
        for points in result.series.values():
            assert [p.n_jobs for p in points] == [2, 4, 6]
            assert all(p.makespan_s > 0 for p in points)
            assert all(p.rejected == 0 for p in points)

    def test_default_runs_are_analytical_and_fault_free(self, result):
        assert result.estimator == "analytical"
        assert result.fault_rate == 0.0

    def test_acceptance_criteria_hold_at_the_largest_size(self, result):
        last = {p: result.series[p][-1] for p in EXPERIMENT5_POLICIES}
        assert last["affinity"].makespan_s < last["fifo"].makespan_s
        assert last["affinity"].exchanges < last["fifo"].exchanges
        assert last["sjf"].mean_latency_s < last["fifo"].mean_latency_s

    def test_to_dict_is_json_ready(self, result):
        import json

        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["sizes"] == [2, 4, 6]


class TestSweepIntegration:
    def test_service_tasks_round_trip_through_the_cache(self, tmp_path, config):
        tasks = [
            service_task(policy, service_workload(2), config)
            for policy in ("fifo", "sjf")
        ]
        cold = SweepRunner(cache=SweepCache(str(tmp_path)))
        first = cold.run(list(tasks))
        warm = SweepRunner(cache=SweepCache(str(tmp_path)))
        second = warm.run(list(tasks))
        assert second == first
        assert warm.cache.hits == 2 and warm.cache.misses == 0

    def test_fingerprint_ignores_request_order_only_via_payload(self, config):
        """Same payload -> same fingerprint; different policy -> different."""
        fifo = service_task("fifo", service_workload(2), config)
        sjf = service_task("sjf", service_workload(2), config)
        assert task_fingerprint(fifo.kind, fifo.payload) != task_fingerprint(
            sjf.kind, sjf.payload
        )
        again = service_task("fifo", service_workload(2), config)
        assert task_fingerprint(fifo.kind, fifo.payload) == task_fingerprint(
            again.kind, again.payload
        )

    def test_fault_plan_forces_simulated_profiles(self, config):
        from repro.faults.plan import FaultPlan
        from repro.sweep.tasks import execute_task

        task = service_task(
            "fifo", service_workload(2), config,
            fault_plan=FaultPlan.uniform(0.01, seed=2),
        )
        assert task.payload["faults"]["plan"]["seed"] == 2
        assert execute_task(task.kind, task.payload)["estimator"] == "simulated"
