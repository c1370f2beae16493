"""The fault injector: deterministic fault decisions plus the retry loop.

One injector is built per :class:`~repro.core.environment.JoinEnvironment`
when the spec carries a :class:`~repro.faults.plan.FaultPlan`.  Devices
delegate their bus transfers to :meth:`FaultInjector.guarded_transfer`,
which draws a verdict from the device's seeded stream, charges stalls and
retries in *simulated* time as callbacks (no process), and reports a
typed exception once the :class:`~repro.faults.policy.RetryPolicy` is
exhausted.

Determinism contract: the verdict for the N-th operation of a device is a
pure function of ``(plan.seed, device name, N)``.  Device operations are
serialized by each device's resource (one tape unit, one disk arm), and
the simulator's event ordering is deterministic, so N — and therefore the
whole fault schedule — replays identically across runs and processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import typing

from repro.faults.errors import (
    DeviceFault,
    DiskTransientError,
    ErrorBudgetExceededError,
    RetryExhaustedError,
    TapeSoftReadError,
    TapeWriteError,
)
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import Simulator
    from repro.storage.bus import Bus
    from repro.storage.hierarchy import StorageSystem

#: Kinds subject to drive stalls (tape mechanics; disks do not stall).
_STALL_KINDS = ("tape-read", "tape-write")

_FAULT_TYPES: dict[str, type[DeviceFault]] = {
    "tape-read": TapeSoftReadError,
    "tape-write": TapeWriteError,
    "disk-read": DiskTransientError,
    "disk-write": DiskTransientError,
}


@dataclasses.dataclass
class FaultStats:
    """Counters the injector accumulates over one join."""

    #: Faults that fired (errors, stalls and bus glitches).
    events: int = 0
    #: Failed operations that were retried.
    retries: int = 0
    #: Simulated seconds lost to failed attempts, detection and backoff.
    recovery_s: float = 0.0
    #: Simulated seconds of pure added latency (stalls and glitches).
    delay_s: float = 0.0
    #: Permanent (post-retry-loop) errors per device.
    errors_by_device: dict[str, int] = dataclasses.field(default_factory=dict)


class FaultInjector:
    """Per-join fault state: seeded streams, counters, the retry loop."""

    def __init__(
        self,
        sim: "Simulator",
        plan: FaultPlan,
        policy: RetryPolicy | None = None,
    ):
        self.sim = sim
        self.plan = plan
        self.policy = policy or RetryPolicy()
        self.stats = FaultStats()
        self._streams: dict[str, random.Random] = {}
        self._errors: dict[str, int] = {}
        self._step1_done = False
        #: Optional :class:`~repro.obs.recorder.JoinObserver`; records a
        #: span per retried attempt.  Recording draws nothing from the
        #: fault streams, so traced fault schedules replay identically.
        self.observer = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, storage: "StorageSystem") -> None:
        """Install this injector on every device of a storage system."""
        for device in storage.devices:
            device.faults = self
        for bus in storage.buses:
            bus.fault_hook = self.glitch_delay

    def mark_step1(self) -> None:
        """Step I is complete; ``step2_only`` plans arm from here on."""
        self._step1_done = True

    # -- deterministic decisions ---------------------------------------------

    def _stream(self, device: str) -> random.Random:
        rng = self._streams.get(device)
        if rng is None:
            digest = hashlib.sha256(
                f"{self.plan.seed}:{device}".encode("utf-8")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[device] = rng
        return rng

    def _armed(self, kind: str) -> bool:
        plan = self.plan
        if not plan.active:
            return False
        if plan.step2_only and not self._step1_done:
            return False
        if plan.kinds is not None and kind not in plan.kinds:
            return False
        return True

    def decide(self, device: str, kind: str) -> str | None:
        """Verdict for one device operation: None, "error" or "stall"."""
        if not self._armed(kind):
            return None
        plan = self.plan
        error_rate = plan.error_rate(kind)
        stall_rate = plan.stall_rate if kind in _STALL_KINDS else 0.0
        if error_rate <= 0 and stall_rate <= 0:
            return None
        draw = self._stream(device).random()
        if draw < error_rate:
            return "error"
        if draw < error_rate + stall_rate:
            return "stall"
        return None

    def glitch_delay(self, bus: "Bus") -> float:
        """Extra lead-in for one bus transfer (0.0 almost always)."""
        plan = self.plan
        if plan.bus_glitch_rate <= 0 or not self._armed("bus"):
            return 0.0
        if self._stream(bus.name).random() < plan.bus_glitch_rate:
            self.stats.events += 1
            self.stats.delay_s += plan.bus_glitch_s
            return plan.bus_glitch_s
        return 0.0

    # -- the guarded transfer (retry loop) ------------------------------------

    def guarded_transfer(
        self,
        bus: "Bus",
        nominal_rate_bytes_s: float,
        n_bytes: float,
        lead_in_s: float,
        device: str,
        kind: str,
        done: typing.Callable[[BaseException | None], None],
    ) -> None:
        """Run one bus transfer under the plan's faults and the policy.

        ``done`` (a device op's completion) is called, with no queue hop,
        at the instant the last attempt (or its detection) ends, with None
        or the failure.  A "stall" verdict stretches the transfer's
        lead-in.  An "error" verdict means the transfer's simulated time
        is wasted: detection and backoff are charged, and the operation
        is retried until the policy gives up — then ``done`` gets a
        :class:`RetryExhaustedError` whose ``__cause__`` is the typed
        device fault.  The attempts and the backoff pauses are callbacks.
        """
        sim, plan, policy, stats = self.sim, self.plan, self.policy, self.stats

        def attempt(number: int) -> None:
            verdict = self.decide(device, kind)
            extra = 0.0
            if verdict == "stall":
                extra = plan.stall_s
                stats.events += 1
                stats.delay_s += extra
            started = sim.now
            bus.transfer(
                nominal_rate_bytes_s, n_bytes, lead_in_s + extra,
                done=(lambda _none: failed(number, started)) if verdict == "error" else done,
            )

        def give_up(error: BaseException, fault: DeviceFault) -> None:
            stats.errors_by_device[device] = stats.errors_by_device.get(device, 0) + 1
            error.__cause__ = fault
            done(error)

        def failed(number: int, started: float) -> None:
            stats.events += 1
            wasted = sim.now - started
            fault = _FAULT_TYPES[kind](
                f"{device}: injected {kind} fault (attempt {number + 1})",
                device,
                kind,
            )
            errors = self._errors.get(device, 0) + 1
            self._errors[device] = errors
            budget = policy.device_error_budget
            if budget is not None and errors > budget:
                stats.recovery_s += wasted
                give_up(ErrorBudgetExceededError(
                    f"{device}: {errors} errors exceed the per-device budget "
                    f"of {budget}; treating the device as failed",
                    device,
                    errors,
                    budget,
                ), fault)
                return
            last = number >= policy.max_retries
            pause = plan.detect_s + (0.0 if last else policy.backoff_for(number))

            def resume(_arg=None) -> None:
                stats.recovery_s += wasted + pause
                if last:
                    give_up(RetryExhaustedError(
                        f"{device}: {kind} failed {number + 1} times; retry "
                        f"policy exhausted (max_retries={policy.max_retries})",
                        device,
                        kind,
                        number + 1,
                    ), fault)
                    return
                stats.retries += 1
                if self.observer is not None:
                    self.observer.span(
                        f"{device}.{kind} retry", started, sim.now, "fault-retry"
                    )
                    self.observer.count("fault_retries")
                attempt(number + 1)

            if pause > 0:
                sim.defer(resume, None, pause)
            else:
                resume()

        attempt(0)
