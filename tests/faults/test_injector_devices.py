"""Injector runtime: stalls, retries, budgets — all charged in simulated time."""

import dataclasses

import pytest

from repro.faults import (
    DiskTransientError,
    ErrorBudgetExceededError,
    FaultInjector,
    MediaError,
    RetryExhaustedError,
    TapeSoftReadError,
)
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.simulator.events import Event
from repro.storage.block import MB, BlockSpec
from repro.storage.bus import Bus
from repro.sweep.serialize import rebuild


@pytest.fixture
def bus(sim):
    return Bus(sim, "scsi")


def run(sim, gen):
    return sim.run(sim.process(gen))


def transfer_1s(injector, bus, device="t0", kind="tape-read", lead_in=0.5):
    """One guarded transfer taking lead_in + 1.0 simulated seconds."""
    event = Event(injector.sim)
    injector.guarded_transfer(bus, MB, MB, lead_in, device, kind, event._settle)
    return (yield event)


def catching(gen, exc_type):
    """Run ``gen`` and return the exception it raises (must raise)."""
    def catcher():
        try:
            yield from gen
        except exc_type as exc:
            return exc
        raise AssertionError(f"expected {exc_type.__name__}")
    return catcher()


class TestRetryPolicy:
    def test_backoff_progression_and_cap(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_factor=2.0, max_backoff_s=5.0)
        assert [policy.backoff_for(a) for a in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(device_error_budget=0)

    def test_round_trip(self):
        policy = RetryPolicy(max_retries=2, backoff_s=0.25, device_error_budget=9)
        assert rebuild(RetryPolicy, dataclasses.asdict(policy)) == policy


class TestCleanTransfer:
    def test_no_faults_costs_exactly_the_transfer(self, sim, bus):
        injector = FaultInjector(sim, FaultPlan(seed=1))
        run(sim, transfer_1s(injector, bus))
        assert sim.now == pytest.approx(1.5)
        assert injector.stats.events == 0
        assert injector.stats.recovery_s == 0.0


class TestStalls:
    def test_stall_stretches_the_transfer(self, sim, bus):
        plan = FaultPlan(stall_rate=1.0, stall_s=2.0)
        injector = FaultInjector(sim, plan)
        run(sim, transfer_1s(injector, bus))
        # lead-in 0.5 + stall 2.0 + transfer 1.0, all simulated seconds.
        assert sim.now == pytest.approx(3.5)
        assert injector.stats.events == 1
        assert injector.stats.delay_s == pytest.approx(2.0)
        assert injector.stats.retries == 0

    def test_disks_do_not_stall(self, sim, bus):
        plan = FaultPlan(stall_rate=1.0, stall_s=2.0)
        injector = FaultInjector(sim, plan)
        run(sim, transfer_1s(injector, bus, device="d0", kind="disk-read"))
        assert sim.now == pytest.approx(1.5)
        assert injector.stats.events == 0


class TestRetries:
    def test_exhaustion_timing_and_cause(self, sim, bus):
        plan = FaultPlan(tape_read_error_rate=1.0, detect_s=0.5)
        policy = RetryPolicy(max_retries=2, backoff_s=1.0, backoff_factor=2.0)
        injector = FaultInjector(sim, plan, policy)
        exc = run(sim, catching(transfer_1s(injector, bus), RetryExhaustedError))
        assert isinstance(exc, MediaError)
        assert exc.device == "t0"
        assert exc.kind == "tape-read"
        assert exc.attempts == 3
        assert isinstance(exc.__cause__, TapeSoftReadError)
        assert exc.__cause__.device == "t0"
        # Three wasted 1.5 s attempts, two detect+backoff pauses (0.5+1,
        # 0.5+2) and the final detection — every second on the sim clock.
        assert sim.now == pytest.approx(3 * 1.5 + 1.5 + 2.5 + 0.5)
        assert injector.stats.retries == 2
        assert injector.stats.events == 3
        # Every attempt failed, so the whole elapsed time counts as recovery.
        assert injector.stats.recovery_s == pytest.approx(sim.now)
        assert injector.stats.errors_by_device == {"t0": 1}

    def test_disk_faults_raise_disk_flavor(self, sim, bus):
        plan = FaultPlan(disk_error_rate=1.0)
        injector = FaultInjector(sim, plan, RetryPolicy(max_retries=0))
        exc = run(sim, catching(
            transfer_1s(injector, bus, device="d0", kind="disk-write"),
            RetryExhaustedError,
        ))
        assert isinstance(exc.__cause__, DiskTransientError)

    def test_intermittent_fault_recovers(self, sim, bus):
        """With a rate below 1 the retry loop eventually gets a clean
        attempt through and the transfer succeeds."""
        plan = FaultPlan(tape_read_error_rate=0.5, seed=2, detect_s=0.1)
        injector = FaultInjector(sim, plan, RetryPolicy(max_retries=50, backoff_s=0.1))

        def many():
            for _ in range(20):
                yield from transfer_1s(injector, bus)

        run(sim, many())
        assert injector.stats.retries > 0
        assert injector.stats.errors_by_device == {}  # nothing permanent
        assert injector.stats.recovery_s > 0


class TestErrorBudget:
    def test_budget_exceeded_is_terminal(self, sim, bus):
        plan = FaultPlan(tape_read_error_rate=1.0)
        policy = RetryPolicy(max_retries=10, backoff_s=0.0, device_error_budget=2)
        injector = FaultInjector(sim, plan, policy)
        exc = run(sim, catching(
            transfer_1s(injector, bus), ErrorBudgetExceededError))
        assert exc.device == "t0"
        assert exc.errors == 3
        assert exc.budget == 2
        # Budget exhaustion means the device is dead — restarting a bucket
        # against it would loop, so this must NOT be join-recoverable.
        assert not isinstance(exc, MediaError)

    def test_budget_spans_operations(self, sim, bus):
        plan = FaultPlan(tape_read_error_rate=1.0, detect_s=0.0)
        policy = RetryPolicy(max_retries=0, backoff_s=0.0, device_error_budget=1)
        injector = FaultInjector(sim, plan, policy)
        run(sim, catching(transfer_1s(injector, bus), RetryExhaustedError))
        exc = run(sim, catching(
            transfer_1s(injector, bus), ErrorBudgetExceededError))
        assert exc.errors == 2


class TestBusGlitches:
    def test_glitch_delays_one_transfer(self, sim, bus):
        plan = FaultPlan(bus_glitch_rate=1.0, bus_glitch_s=0.25)
        injector = FaultInjector(sim, plan)
        bus.fault_hook = injector.glitch_delay

        def one():
            yield bus.transfer(MB, MB, lead_in_s=0.0)

        run(sim, one())
        assert sim.now == pytest.approx(1.25)
        assert injector.stats.events == 1
        assert injector.stats.delay_s == pytest.approx(0.25)

    def test_rate0_hook_is_free(self, sim, bus):
        injector = FaultInjector(sim, FaultPlan(seed=4))
        bus.fault_hook = injector.glitch_delay

        def one():
            yield bus.transfer(MB, MB, lead_in_s=0.0)

        run(sim, one())
        assert sim.now == pytest.approx(1.0)
        assert injector.stats.events == 0


class TestDeviceIntegration:
    def test_tape_drive_read_surfaces_typed_fault(self, sim):
        from repro.storage.tape import TapeDrive, TapeVolume
        import numpy as np
        from repro.storage.block import DataChunk

        drive = TapeDrive(sim, "t0", Bus(sim, "scsi"), BlockSpec())
        volume = TapeVolume("vol", capacity_blocks=100.0)
        data = volume.create_file("data")
        data._append(DataChunk.from_keys(np.arange(100), 10))
        drive.load(volume)
        plan = FaultPlan(tape_read_error_rate=1.0)
        injector = FaultInjector(sim, plan, RetryPolicy(max_retries=0))
        drive.faults = injector
        exc = run(sim, catching(
            drive.read_range(data, 0.0, 5.0), RetryExhaustedError))
        assert exc.device == "t0"
        assert exc.kind == "tape-read"
