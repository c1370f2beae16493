"""A shared I/O bus modeled as a fluid bandwidth pool.

The paper's testbed attached disks and a tape drive to each of two Fast
SCSI-2 buses; concurrent transfers share the bus.  We model this with
max-min fair sharing: each active transfer proceeds at its device's nominal
rate unless the sum of nominal rates exceeds the bus bandwidth, in which
case rates are scaled by water-filling.

Two scheduling regimes keep this cheap.  While the nominal rates fit in
the bus bandwidth — which is always the case for the paper's device mix
(10 MB/s bus, devices of at most 3.5 MB/s) — every flow runs at its
nominal rate, so each transfer is exactly one scheduled completion event
and no per-arrival replanning is needed (the *fast* regime).  The moment
an arrival would oversubscribe the bus, in-flight work is settled and the
bus switches to the *managed* regime: whenever a transfer starts or
completes, remaining work is settled at the old rates and rates are
recomputed — a small fluid-flow scheduler.  Once the load drops back
under the bandwidth, the bus returns to the fast regime.

Transfers may carry a ``lead_in_s`` delay (device positioning time before
the data moves); the lead-in is folded into the same completion event, so
a reposition-then-stream tape request costs one event, not two.
"""

from __future__ import annotations

import math
import typing

from repro.simulator.engine import Simulator
from repro.simulator.events import Event

_EPS_BYTES = 1e-6


class _Flow:
    __slots__ = ("remaining", "nominal", "rate", "event", "active_from")

    def __init__(self, remaining: float, nominal: float, event: Event):
        self.remaining = remaining
        self.nominal = nominal
        self.rate = 0.0
        self.event = event
        #: Absolute time the lead-in ends and bytes start moving.
        self.active_from = 0.0


def _water_fill(flows: list[_Flow], capacity: float) -> None:
    """Assign max-min fair rates capped at each flow's nominal rate."""
    if not flows:
        return
    if math.isinf(capacity) or sum(f.nominal for f in flows) <= capacity:
        for flow in flows:
            flow.rate = flow.nominal
        return
    pending = sorted(flows, key=lambda f: f.nominal)
    remaining_cap = capacity
    while pending:
        share = remaining_cap / len(pending)
        flow = pending.pop(0)
        flow.rate = min(flow.nominal, share)
        remaining_cap -= flow.rate


class Bus:
    """A bandwidth-capped channel shared by concurrent transfers."""

    def __init__(self, sim: Simulator, name: str, bandwidth_bytes_per_s: float = math.inf):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError(f"bus bandwidth must be positive, got {bandwidth_bytes_per_s}")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth_bytes_per_s)
        self.bytes_moved = 0.0
        self._flows: list[_Flow] = []
        self._last_update = sim.now
        #: Invalidates the managed regime's next-completion timer.
        self._timer_token = 0
        #: Invalidates the fast regime's per-flow completion timers.
        self._epoch = 0
        self._fast = True
        #: Sum of nominal rates over all flows (lead-ins included).
        self._nominal_sum = 0.0
        #: Optional fault hook (``repro.faults``): called once per transfer
        #: with this bus, returns extra lead-in seconds (a bus glitch).
        self.fault_hook: typing.Callable[["Bus"], float] | None = None
        #: Optional :class:`~repro.obs.recorder.JoinObserver`; samples the
        #: in-flight transfer count and records bus-active busy spans.
        #: Purely observational — no events are created or reordered.
        self.observer = None
        self._busy_since: float | None = None

    def _observe(self) -> None:
        """Sample the flow count; open/close the bus-active busy span.

        Called whenever the flow list changes.  Back-to-back transfers
        close and reopen the span at the same timestamp; the interval
        tracker merges such adjacent intervals when queried.
        """
        if self.observer is None:
            return
        now = self.sim.now
        self.observer.queue_depth(self.name, now, len(self._flows))
        if self._flows and self._busy_since is None:
            self._busy_since = now
        elif not self._flows and self._busy_since is not None:
            self.observer.device_busy(self.name, self._busy_since, now, "bus-active")
            self._busy_since = None

    def transfer(
        self, nominal_rate_bytes_s: float, n_bytes: float, lead_in_s: float = 0.0
    ) -> Event:
        """Move ``n_bytes`` at up to ``nominal_rate_bytes_s``.

        Returns an event that triggers when the transfer completes.  The
        effective rate is reduced whenever the bus is oversubscribed.
        ``lead_in_s`` delays the start of the byte movement (the caller's
        positioning time) without costing a separate scheduled event.
        """
        if nominal_rate_bytes_s <= 0:
            raise ValueError(f"transfer rate must be positive, got {nominal_rate_bytes_s}")
        if n_bytes < 0:
            raise ValueError(f"transfer size must be >= 0, got {n_bytes}")
        if lead_in_s < 0:
            raise ValueError(f"lead-in must be >= 0, got {lead_in_s}")
        if self.fault_hook is not None:
            lead_in_s += self.fault_hook(self)
        done = Event(self.sim)
        self.bytes_moved += n_bytes
        if n_bytes <= _EPS_BYTES:
            if lead_in_s > 0:
                timer = self.sim.timeout(lead_in_s)
                timer.callbacks.append(lambda _event: done._succeed_now())
            else:
                done.succeed()
            return done
        flow = _Flow(n_bytes, nominal_rate_bytes_s, done)
        flow.active_from = self.sim.now + lead_in_s
        if self._fast:
            if self._nominal_sum + nominal_rate_bytes_s <= self.bandwidth:
                self._nominal_sum += nominal_rate_bytes_s
                flow.rate = nominal_rate_bytes_s
                self._flows.append(flow)
                self._schedule_fast_done(flow)
                self._observe()
                return done
            self._to_managed()
        else:
            self._settle()
        self._nominal_sum += nominal_rate_bytes_s
        self._flows.append(flow)
        self._replan()
        self._observe()
        return done

    # -- fast regime ----------------------------------------------------------

    def _schedule_fast_done(self, flow: _Flow) -> None:
        """One absolute completion timer: lead-in plus transfer at nominal."""
        now = self.sim.now
        delay = (flow.active_from - now) + flow.remaining / flow.rate
        delay = max(delay, 1e-9, now * 1e-12)
        epoch = self._epoch
        timer = self.sim.timeout(delay)
        timer.callbacks.append(lambda _event: self._fast_done(flow, epoch))

    def _fast_done(self, flow: _Flow, epoch: int) -> None:
        if epoch != self._epoch:
            return  # superseded by a switch to the managed regime
        self._flows.remove(flow)
        self._nominal_sum -= flow.nominal
        if not self._flows:
            self._nominal_sum = 0.0  # shed float dust while idle
        self._observe()
        flow.event._succeed_now()

    def _to_managed(self) -> None:
        """Settle fast-regime flows and take over scheduling."""
        now = self.sim.now
        for flow in self._flows:
            elapsed = now - flow.active_from
            if elapsed > 0:
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
        self._epoch += 1  # cancel every fast-regime completion timer
        self._fast = False
        self._last_update = now

    # -- managed regime -------------------------------------------------------

    def _settle(self) -> None:
        """Advance all flows' remaining work to the current time."""
        elapsed = self.sim.now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
        self._last_update = self.sim.now

    def _replan(self) -> None:
        """Recompute rates and schedule the next completion or activation."""
        self._timer_token += 1
        if not self._flows:
            self._fast = True
            self._nominal_sum = 0.0
            return
        if self._nominal_sum <= self.bandwidth:
            self._to_fast()
            return
        now = self.sim.now
        active, next_done = [], math.inf
        for flow in self._flows:
            flow.rate = 0.0  # lead-in flows move no bytes until active
            if flow.active_from <= now:
                active.append(flow)
            else:
                next_done = min(next_done, flow.active_from - now)
        _water_fill(active, self.bandwidth)
        for flow in active:
            next_done = min(next_done, flow.remaining / flow.rate)
        # Clamp to a minimum tick: at large timestamps a sub-resolution
        # delay would not advance the float clock, and the settle/replan
        # cycle would spin forever on a nearly-finished flow.
        next_done = max(next_done, 1e-9, now * 1e-12)
        token = self._timer_token
        timer = self.sim.timeout(next_done)
        timer.callbacks.append(lambda _event: self._on_timer(token))

    def _to_fast(self) -> None:
        """Return to per-flow completion timers (load fits the bandwidth)."""
        self._fast = True
        now = self.sim.now
        for flow in self._flows:
            flow.rate = flow.nominal
            if flow.active_from < now:
                flow.active_from = now  # remaining is settled as of now
            self._schedule_fast_done(flow)

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # superseded by a later replan
        self._settle()
        finished = [f for f in self._flows if f.remaining <= _EPS_BYTES]
        if finished:
            self._flows = [f for f in self._flows if f.remaining > _EPS_BYTES]
            self._observe()
        for flow in finished:
            self._nominal_sum -= flow.nominal
            flow.event._succeed_now()
        self._replan()
