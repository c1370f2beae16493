"""The repro.api facade."""

import pytest

import repro
from repro import api
from repro.core.planner import plan_join
from repro.core.spec import JoinSpec


@pytest.fixture
def spec(small_r, small_s):
    return JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=130.0)


class TestFacade:
    def test_plan_is_the_planner(self, spec):
        assert api.plan(spec).chosen == plan_join(spec).chosen

    def test_run_join_plans_runs_and_verifies(self, spec):
        stats = api.run_join(spec, verify=True)
        assert stats.symbol == api.plan(spec).chosen
        assert stats.response_s > 0

    def test_run_join_honors_a_method_override(self, spec):
        stats = api.run_join(spec, method="TT-GH", verify=True)
        assert stats.symbol == "TT-GH"

    def test_run_join_verify_catches_a_diverged_output(self, spec, monkeypatch):
        import repro.relational.join_core as join_core

        honest = join_core.reference_join(spec.relation_r, spec.relation_s)
        wrong = join_core.JoinResult(honest.n_pairs + 1, honest.checksum)
        monkeypatch.setattr(join_core, "reference_join", lambda r, s: wrong)
        with pytest.raises(api.JoinVerificationError, match="reference join"):
            api.run_join(spec, method="DT-GH", verify=True)

    def test_run_join_fault_rate_records_faults(self, spec):
        stats = api.run_join(spec, fault_rate=0.02, fault_seed=1)
        assert stats.fault_events > 0

    def test_run_join_trace_out_exports_validating_traces(self, spec, tmp_path):
        from repro.obs.validate import validate_directory

        stats = api.run_join(spec, trace_out=str(tmp_path))
        assert stats.observer is not None
        validate_directory(str(tmp_path))

    def test_trace_requires_an_observer(self, spec, tmp_path):
        stats = api.run_join(spec)
        with pytest.raises(ValueError, match="observer"):
            api.trace(stats, str(tmp_path))

    def test_sweep_runs_tasks_in_order(self, tmp_path):
        from repro.experiments.config import BASE_TAPE, DISK_1996, ExperimentScale

        scale = ExperimentScale(scale=0.05)
        tasks = [
            api.join_task(symbol, 100.0, 400.0, memory_blocks=10.0,
                          disk_blocks=130.0, tape=BASE_TAPE,
                          disk_params=DISK_1996, scale=scale)
            for symbol in ("TT-GH", "DT-GH")
        ]
        results = api.sweep(tasks, cache_dir=str(tmp_path))
        assert len(results) == 2
        assert all(not r["infeasible"] for r in results)
        assert all(r["stats"]["response_s"] > 0 for r in results)

    def test_submit_builds_requests_from_keywords(self):
        service = api.JoinService()
        request = service.submit(name="q", r_mb=10.0, s_mb=40.0)
        assert service.requests == (request,)

    def test_root_package_re_exports_the_facade(self):
        for name in ("plan", "run_join", "trace", "run_service",
                     "ServiceConfig", "JoinRequest", "FaultPlan"):
            assert getattr(repro, name) is getattr(api, name)

    def test_root_sweep_stays_a_subpackage(self):
        """api.sweep must not shadow the repro.sweep subpackage."""
        import types

        import repro.sweep

        assert isinstance(repro.sweep, types.ModuleType)
