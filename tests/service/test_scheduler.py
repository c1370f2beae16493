"""End-to-end service runs: admission, overlap, and the policy claims.

The policy assertions here are the PR's acceptance criteria: on the
10-job mixed workload, tape-affinity batching yields a strictly lower
makespan (and strictly fewer robot exchanges) than FIFO, and
shortest-job-first yields a strictly lower mean latency than FIFO.
"""

import json

import pytest

from repro import api
from repro.service.estimators import SimulatedEstimator
from repro.service.requests import JoinRequest, ServiceConfig
from repro.service.scheduler import JoinService, run_service


@pytest.fixture(scope="module")
def reports():
    """One run per policy on the shared 10-job workload (analytical)."""
    from repro.experiments.config import ExperimentScale
    from repro.experiments.exp5_service import service_workload

    config = ServiceConfig(scale=ExperimentScale(scale=0.05))
    return {
        policy: run_service(service_workload(10), config=config, policy=policy)
        for policy in ("fifo", "sjf", "affinity")
    }


class TestPolicyClaims:
    def test_affinity_beats_fifo_makespan(self, reports):
        assert reports["affinity"].makespan_s < reports["fifo"].makespan_s

    def test_affinity_swaps_fewer_cartridges(self, reports):
        assert reports["affinity"].exchanges < reports["fifo"].exchanges

    def test_sjf_beats_fifo_mean_latency(self, reports):
        assert reports["sjf"].mean_latency_s < reports["fifo"].mean_latency_s

    def test_all_jobs_complete_under_every_policy(self, reports):
        for report in reports.values():
            assert len(report.completed) == 10
            assert not report.rejected

    def test_reports_are_consistent(self, reports):
        for report in reports.values():
            finished = max(o.finished_s for o in report.completed)
            assert report.makespan_s == finished
            assert 0.0 < report.p95_latency_s <= report.makespan_s
            for utilization in report.device_utilization.values():
                assert 0.0 <= utilization <= 1.0


class TestOverlap:
    def test_step2_overlaps_the_next_jobs_tape_read(self, config):
        """Makespan beats serial execution: jobs genuinely interleave."""
        requests = [
            JoinRequest(
                name=f"j{i}", r_mb=80.0, s_mb=2000.0 + 100.0 * i,
                method="CDT-GH",
            )
            for i in range(4)
        ]
        report = run_service(requests, config=config, policy="fifo")
        serial_s = sum(o.finished_s - o.started_s for o in report.completed)
        assert report.makespan_s < serial_s
        # Some job's Step I started while an earlier job was still running.
        first = min(report.completed, key=lambda o: o.started_s)
        others = [o for o in report.completed if o is not first]
        assert any(o.started_s < first.finished_s for o in others)


class TestAdmission:
    def test_oversized_memory_request_is_rejected_with_reason(self, config):
        service = JoinService(config)
        service.submit(
            name="big", r_mb=80.0, s_mb=800.0,
            memory_mb=10 * config.pool_memory_mb,
        )
        service.submit(name="ok", r_mb=80.0, s_mb=800.0)
        report = service.run()
        outcome = {o.name: o for o in report.outcomes}
        assert outcome["big"].status == "rejected"
        assert "pool holds" in outcome["big"].reason
        assert outcome["ok"].status == "completed"

    def test_infeasible_join_carries_the_planner_reason(self, config):
        service = JoinService(config)
        # Starve disk AND cap memory below every method's Table 2 floor.
        service.submit(
            name="starved", r_mb=300.0, s_mb=3000.0,
            memory_mb=0.1, disk_mb=0.2,
        )
        report = service.run()
        (outcome,) = report.outcomes
        assert outcome.status == "rejected"
        assert outcome.reason

    def test_duplicate_names_are_refused(self, config):
        service = JoinService(config)
        service.submit(name="q", r_mb=10.0, s_mb=40.0)
        with pytest.raises(ValueError, match="already queued"):
            service.submit(name="q", r_mb=10.0, s_mb=40.0)

    def test_shared_volume_must_keep_one_size(self, config):
        service = JoinService(config)
        service.submit(name="a", r_mb=10.0, s_mb=40.0, r_volume="dim")
        with pytest.raises(ValueError, match="already holds"):
            service.submit(name="b", r_mb=20.0, s_mb=40.0, r_volume="dim")


def simulated_run(requests, config):
    """A fault-free run on simulated job profiles."""
    service = JoinService(config, estimator=SimulatedEstimator())
    for request in requests:
        service.submit(request)
    return service.run()


class TestFaultKnobs:
    def test_rate_zero_plan_is_inert(self, scale):
        """A zero-rate fault plan changes nothing in the report."""
        from repro.faults.plan import FaultPlan

        config = ServiceConfig(scale=scale)
        requests = [
            JoinRequest(name="a", r_mb=80.0, s_mb=400.0),
            JoinRequest(name="b", r_mb=64.0, s_mb=250.0),
        ]
        plain = simulated_run(requests, config)
        zeroed = run_service(requests, config=config, fault_plan=FaultPlan(seed=3))
        assert zeroed.fault_events == 0
        assert zeroed.to_dict() == plain.to_dict()

    def test_faulty_run_records_recovery(self, scale):
        config = ServiceConfig(scale=scale)
        requests = [JoinRequest(name="a", r_mb=80.0, s_mb=400.0)]
        clean = simulated_run(requests, config)
        faulty = run_service(
            requests, config=config, fault_rate=0.02, fault_seed=1,
        )
        assert faulty.estimator == "simulated"
        assert faulty.fault_events > 0
        assert faulty.makespan_s > clean.makespan_s


class TestTracing:
    def test_trace_out_writes_validating_files(self, config, tmp_path):
        from repro.obs.validate import validate_directory

        requests = [
            JoinRequest(name="a", r_mb=80.0, s_mb=400.0),
            JoinRequest(name="b", r_mb=64.0, s_mb=250.0),
        ]
        api.run_service(
            requests, config=config, policy="sjf", trace_out=str(tmp_path)
        )
        assert (tmp_path / "service-sjf.trace.json").exists()
        validate_directory(str(tmp_path))
        with open(tmp_path / "service-sjf.jsonl", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["policy"] == "sjf" and header["estimator"] == "analytical"
        assert header["jobs"] == 2
