"""FaultPlan: validation, serialization, deterministic replay."""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.faults import OP_KINDS, FaultInjector
from repro.faults.plan import FaultPlan
from repro.sweep.serialize import rebuild

#: Verdict stream long enough to contain errors, stalls and clean ops.
N_DRAWS = 200


def verdicts(plan, device="t0", kind="tape-read", n=N_DRAWS):
    injector = FaultInjector(None, plan)  # sim unused by decide()
    return [injector.decide(device, kind) for _ in range(n)]


class TestValidation:
    @pytest.mark.parametrize("field", [
        "tape_read_error_rate", "tape_write_error_rate", "disk_error_rate",
        "stall_rate", "bus_glitch_rate",
    ])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan(**{field: -0.1})

    @pytest.mark.parametrize("field", ["stall_s", "bus_glitch_s", "detect_s"])
    def test_durations_must_be_non_negative(self, field):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(**{field: -1.0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown operation kinds"):
            FaultPlan(kinds=("tape-read", "floppy-read"))

    def test_all_op_kinds_accepted(self):
        assert FaultPlan(kinds=OP_KINDS).kinds == OP_KINDS


class TestPlanSemantics:
    def test_zero_plan_is_inactive(self):
        assert not FaultPlan(seed=123).active

    @pytest.mark.parametrize("field", [
        "tape_read_error_rate", "tape_write_error_rate", "disk_error_rate",
        "stall_rate", "bus_glitch_rate",
    ])
    def test_any_rate_activates(self, field):
        assert FaultPlan(**{field: 0.01}).active

    def test_uniform_sets_every_rate(self):
        plan = FaultPlan.uniform(0.25, seed=9)
        assert plan.seed == 9
        assert plan.tape_read_error_rate == 0.25
        assert plan.disk_error_rate == 0.25
        assert plan.stall_rate == 0.25
        assert plan.bus_glitch_rate == 0.25

    def test_error_rate_maps_kinds(self):
        plan = FaultPlan(tape_read_error_rate=0.1, tape_write_error_rate=0.2,
                         disk_error_rate=0.3)
        assert plan.error_rate("tape-read") == 0.1
        assert plan.error_rate("tape-write") == 0.2
        assert plan.error_rate("disk-read") == 0.3
        assert plan.error_rate("disk-write") == 0.3
        assert plan.error_rate("bus") == 0.0


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan.uniform(0.05, seed=42, kinds=("disk-read", "bus"),
                                 step2_only=True, stall_s=3.0)
        assert rebuild(FaultPlan, dataclasses.asdict(plan)) == plan

    def test_round_trip_survives_json(self):
        plan = FaultPlan.uniform(0.01, seed=7, kinds=("tape-read",))
        rebuilt = rebuild(FaultPlan, json.loads(json.dumps(dataclasses.asdict(plan))))
        assert rebuilt == plan

    def test_none_kinds_round_trips(self):
        assert rebuild(FaultPlan, dataclasses.asdict(FaultPlan(seed=1))).kinds is None


class TestDeterministicReplay:
    def test_same_seed_same_schedule(self):
        plan = FaultPlan.uniform(0.1, seed=5)
        assert verdicts(plan) == verdicts(plan)

    def test_different_seed_different_schedule(self):
        a = verdicts(FaultPlan.uniform(0.1, seed=5))
        b = verdicts(FaultPlan.uniform(0.1, seed=6))
        assert a != b

    def test_devices_have_independent_streams(self):
        plan = FaultPlan.uniform(0.1, seed=5)
        assert verdicts(plan, device="t0") != verdicts(plan, device="t1")
        # ... but each device's stream replays.
        assert verdicts(plan, device="t1") == verdicts(plan, device="t1")

    def test_schedule_replays_across_processes(self):
        """The fault schedule is a pure function of (seed, device, N) —
        a fixed-seed plan replays identically in a fresh interpreter."""
        plan = FaultPlan.uniform(0.1, seed=31)
        script = (
            "import json, sys\n"
            "from repro.faults import FaultInjector\n"
            "from repro.faults.plan import FaultPlan\n"
            "from repro.sweep.serialize import rebuild\n"
            "plan = rebuild(FaultPlan, json.loads(sys.argv[1]))\n"
            "inj = FaultInjector(None, plan)\n"
            f"out = [inj.decide('t0', 'tape-read') for _ in range({N_DRAWS})]\n"
            "print(json.dumps(out))\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", script, json.dumps(dataclasses.asdict(plan))],
                capture_output=True, text=True, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert json.loads(runs[0]) == verdicts(plan)


class TestGating:
    def test_step2_only_waits_for_mark(self):
        plan = FaultPlan(tape_read_error_rate=1.0, step2_only=True)
        injector = FaultInjector(None, plan)
        assert injector.decide("t0", "tape-read") is None
        injector.mark_step1()
        assert injector.decide("t0", "tape-read") == "error"

    def test_kinds_filter_restricts_injection(self):
        plan = FaultPlan.uniform(1.0, kinds=("disk-read",))
        injector = FaultInjector(None, plan)
        assert injector.decide("t0", "tape-read") is None
        assert injector.decide("d0", "disk-write") is None
        assert injector.decide("d0", "disk-read") == "error"

    def test_rate0_plan_draws_nothing(self):
        """An installed-but-zero plan must not consume RNG state — that is
        what keeps rate-0 parity byte-identical."""
        injector = FaultInjector(None, FaultPlan(seed=3))
        assert injector.decide("t0", "tape-read") is None
        assert injector._streams == {}
