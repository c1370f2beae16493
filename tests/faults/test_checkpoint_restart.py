"""Checkpoint/restart: unit semantics plus end-to-end rigged joins.

The end-to-end tests inject permanent device errors into Step II of
every Grace Hash method (``max_retries=0`` turns each injected error
into a :class:`RetryExhaustedError` immediately) and assert that the
join restarts the failed buckets, records the recovery in its stats, and
still produces exactly the reference join result — on the resident path
and on the bucket-overflow (spill) path alike.
"""

import pytest

from repro import api
from repro.core.requirements import clamp_gh_memory
from repro.experiments.config import (
    EXPERIMENT2_R_MB,
    EXPERIMENT2_S_MB,
    ExperimentScale,
)
from repro.faults import (
    JoinCheckpoint,
    RetryExhaustedError,
    UnitRestartLimitError,
    run_unit,
)
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.simulator.engine import Simulator
from repro.simulator.process import ProcessCrash

#: Fail-fast policy: every injected error escalates to a bucket restart.
FAIL_FAST = RetryPolicy(max_retries=0, backoff_s=0.0)


def run_method(symbol, relation_r, relation_s, verify=False, **spec_options):
    """Run ``symbol`` on the experiments' M=10, D=120 frame."""
    spec = ExperimentScale().join_spec(
        relation_r, relation_s, memory_blocks=10.0, disk_blocks=120.0,
        **spec_options,
    )
    return api.run_join(spec, method=symbol, verify=verify)


def media_error(message="t0: boom"):
    return RetryExhaustedError(message, "t0", "tape-read", 1)


class StubEnv:
    """Just enough JoinEnvironment for run_unit: sim, checkpoint, faults,
    and no observer."""

    observer = None

    def __init__(self, with_faults=True):
        self.sim = Simulator()
        self.checkpoint = JoinCheckpoint()
        self.faults = object() if with_faults else None


def drive(env, gen):
    return env.sim.run(env.sim.process(gen))


class TestRunUnit:
    def test_flaky_unit_restarts_and_completes(self):
        env = StubEnv()
        attempts = []

        def factory():
            def unit():
                attempts.append(env.sim.now)
                yield env.sim.timeout(3.0)
                if len(attempts) < 3:
                    raise media_error()
                return "joined"
            return unit()

        result = drive(env, run_unit(env, "II.b0", factory))
        assert result == "joined"
        assert len(attempts) == 3
        assert env.checkpoint.restarts == 2
        assert env.checkpoint.lost_s == pytest.approx(6.0)

    def test_restart_limit_gives_up(self, monkeypatch):
        monkeypatch.setattr("repro.faults.checkpoint.MAX_UNIT_RESTARTS", 2)
        env = StubEnv()

        def factory():
            def unit():
                yield env.sim.timeout(1.0)
                raise media_error()
            return unit()

        with pytest.raises(ProcessCrash) as exc_info:
            drive(env, run_unit(env, "II.b7", factory))
        cause = exc_info.value.__cause__
        assert isinstance(cause, UnitRestartLimitError)
        assert "II.b7" in str(cause)
        assert env.checkpoint.restarts == 3  # initial try + 2 restarts failed

    def test_without_faults_runs_once_unwrapped(self):
        env = StubEnv(with_faults=False)
        calls = []

        def factory():
            def unit():
                calls.append(1)
                yield env.sim.timeout(1.0)
                return 42
            return unit()

        assert drive(env, run_unit(env, "II.b0", factory)) == 42
        assert calls == [1]
        # The inert path must not even record bookkeeping.
        assert env.checkpoint == JoinCheckpoint()

    def test_non_media_errors_propagate(self):
        env = StubEnv()

        def factory():
            def unit():
                yield env.sim.timeout(1.0)
                raise ValueError("not a device problem")
            return unit()

        with pytest.raises(ProcessCrash, match="not a device problem"):
            drive(env, run_unit(env, "II.b0", factory))
        assert env.checkpoint.restarts == 0


class TestOverflowRestart:
    """A unit on the bucket-overflow (spill) path restarts like any other."""

    def test_media_error_without_spill_stays_restartable(self):
        env = StubEnv()
        attempts = []

        def body():
            attempts.append(1)
            yield env.sim.timeout(1.0)
            if len(attempts) < 2:
                raise media_error()
            return "ok"

        result = drive(env, run_unit(env, "II.b3", body))
        assert result == "ok"
        assert env.checkpoint.restarts == 1

    @pytest.fixture(scope="class")
    def fig5_frame(self):
        """Figure 5's frame at D = 1.25|R|: hash variance alone sends
        many CDT-GH and DT-GH units (and some CTT-GH ones) down the
        spill path."""
        scale = ExperimentScale(scale=0.05, tuple_bytes=8192, seed=1)
        relation_r, relation_s = scale.relations(EXPERIMENT2_R_MB, EXPERIMENT2_S_MB)
        r_blocks = scale.relation_blocks(EXPERIMENT2_R_MB)
        return scale, relation_r, relation_s, r_blocks

    @pytest.mark.parametrize("symbol", ["DT-GH", "CDT-GH", "CTT-GH"])
    def test_faults_mid_spill_restart_the_unit(self, symbol, fig5_frame):
        scale, relation_r, relation_s, r_blocks = fig5_frame

        def run(**options):
            spec = scale.join_spec(
                relation_r, relation_s,
                memory_blocks=clamp_gh_memory(0.1 * r_blocks, r_blocks),
                disk_blocks=1.25 * r_blocks, **options,
            )
            return api.run_join(spec, method=symbol, verify=True)

        plan = FaultPlan(seed=0, kinds=("disk-read",), step2_only=True,
                         disk_error_rate=0.02)
        stats = run(fault_plan=plan, retry_policy=FAIL_FAST)
        assert stats.bucket_restarts > 0
        # A replayed spill unit is counted once, when it completes.
        assert stats.overflow_buckets > 0
        assert stats.overflow_buckets == run().overflow_buckets


#: (method, plan field, faulted kind): disk faults for the disk-staged
#: methods, tape faults for TT-GH whose Step II re-reads both tapes.
RIGGED = [
    ("DT-GH", "disk_error_rate", ("disk-read",)),
    ("CDT-GH", "disk_error_rate", ("disk-read",)),
    ("CTT-GH", "disk_error_rate", ("disk-read",)),
    ("TT-GH", "tape_read_error_rate", ("tape-read",)),
]


class TestRiggedJoins:
    @pytest.mark.parametrize("symbol,rate_field,kinds", RIGGED)
    def test_bucket_restarts_preserve_correctness(
        self, symbol, rate_field, kinds, small_r, small_s
    ):
        plan = FaultPlan(seed=7, kinds=kinds, step2_only=True,
                         **{rate_field: 0.02})
        stats = run_method(
            symbol, small_r, small_s,
            fault_plan=plan, retry_policy=FAIL_FAST, verify=True,
        )
        assert stats.bucket_restarts > 0
        assert stats.fault_events > 0
        assert stats.restart_lost_s > 0
        # Recovery shows up in the response time: the run is slower than
        # its fault-free twin.
        clean = run_method(symbol, small_r, small_s)
        assert stats.response_s > clean.response_s

    @pytest.mark.parametrize("symbol,rate_field,kinds", RIGGED)
    def test_rigged_run_is_deterministic(
        self, symbol, rate_field, kinds, small_r, small_s
    ):
        plan = FaultPlan(seed=7, kinds=kinds, step2_only=True,
                         **{rate_field: 0.02})

        def once():
            return run_method(
                symbol, small_r, small_s, fault_plan=plan, retry_policy=FAIL_FAST
            )

        first, second = once(), once()
        assert first.response_s == second.response_s
        assert first.bucket_restarts == second.bucket_restarts
        assert first.fault_events == second.fault_events

    def test_unrecoverable_plan_hits_restart_limit(self, small_r, small_s):
        plan = FaultPlan(seed=7, kinds=("disk-read",), step2_only=True,
                         disk_error_rate=1.0)
        with pytest.raises(ProcessCrash) as exc_info:
            run_method("DT-GH", small_r, small_s,
                       fault_plan=plan, retry_policy=FAIL_FAST)
        assert isinstance(exc_info.value.__cause__, UnitRestartLimitError)

    def test_error_budget_kills_the_join(self, small_r, small_s):
        from repro.faults import ErrorBudgetExceededError

        plan = FaultPlan(seed=7, kinds=("disk-read",), step2_only=True,
                         disk_error_rate=1.0)
        policy = RetryPolicy(max_retries=0, backoff_s=0.0, device_error_budget=2)
        with pytest.raises(ProcessCrash) as exc_info:
            run_method("DT-GH", small_r, small_s,
                       fault_plan=plan, retry_policy=policy)
        assert isinstance(exc_info.value.__cause__, ErrorBudgetExceededError)
