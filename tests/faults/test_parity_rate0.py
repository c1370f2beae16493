"""Rate-0 parity: an installed-but-zero fault layer changes nothing.

A :class:`FaultPlan` with all rates zero still installs the injector and
routes every device I/O through the guarded paths.  These tests hold the
repo to the inertness contract: the resulting experiment artifacts are
*identical* — same JSON, byte for byte — to a run with no fault layer at
all, whether the sweep executes inline or across worker processes.
"""

import json

import pytest

from repro.api import run_join
from repro.experiments.config import ExperimentScale
from repro.experiments.exp1 import run_experiment1
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.sweep.runner import SweepRunner

SCALE = 0.05  # small enough to keep four full Table 3 runs quick


def table3_json(fault_plan=None, retry_policy=None, jobs=1):
    result = run_experiment1(
        scale=ExperimentScale(scale=SCALE, tuple_bytes=8192),
        runner=SweepRunner(jobs=jobs),
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    return json.dumps(result.to_dict(), sort_keys=True)


class TestRate0Parity:
    def test_inline_artifact_is_byte_identical(self):
        baseline = table3_json()
        guarded = table3_json(fault_plan=FaultPlan(seed=0))
        assert guarded == baseline

    def test_pooled_artifact_is_byte_identical(self):
        baseline = table3_json()
        guarded = table3_json(fault_plan=FaultPlan(seed=0), jobs=4)
        assert guarded == baseline

    def test_seed_is_irrelevant_at_rate_0(self):
        # A rate-0 plan never draws from its streams, so the seed cannot
        # leak into the artifact.
        assert table3_json(fault_plan=FaultPlan(seed=0)) == table3_json(
            fault_plan=FaultPlan(seed=12345)
        )

    def test_retry_policy_alone_is_inert(self):
        guarded = table3_json(
            fault_plan=FaultPlan(seed=0),
            retry_policy=RetryPolicy(max_retries=1, backoff_s=9.0),
        )
        assert guarded == table3_json()


class TestStatsAtRate0:
    def test_guarded_run_reports_zero_fault_activity(self, small_r, small_s):
        spec = ExperimentScale().join_spec(
            small_r, small_s, memory_blocks=10.0, disk_blocks=120.0,
            fault_plan=FaultPlan(seed=0),
        )
        stats = run_join(spec, method="CTT-GH", verify=True)
        assert stats.fault_events == 0
        assert stats.fault_retries == 0
        assert stats.fault_recovery_s == 0.0
        assert stats.fault_delay_s == 0.0
        assert stats.bucket_restarts == 0
        assert stats.restart_lost_s == 0.0

    def test_guarded_run_matches_unguarded_timing(self, small_r, small_s):
        def tt_gh(**options):
            spec = ExperimentScale().join_spec(
                small_r, small_s, memory_blocks=10.0, disk_blocks=120.0,
                **options,
            )
            return run_join(spec, method="TT-GH")

        clean = tt_gh()
        guarded = tt_gh(fault_plan=FaultPlan(seed=0))
        assert guarded.response_s == clean.response_s
        assert guarded.step1_s == clean.step1_s
