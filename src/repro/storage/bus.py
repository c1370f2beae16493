"""A shared I/O bus modeled as a fluid bandwidth pool.

The paper's testbed attached disks and a tape drive to each of two Fast
SCSI-2 buses; concurrent transfers share the bus.  We model this with
max-min fair sharing: each active transfer proceeds at its device's nominal
rate unless the sum of nominal rates exceeds the bus bandwidth, in which
case rates are scaled by water-filling.

Three scheduling regimes keep this cheap.  The wiring that attaches
devices to a bus declares them (:meth:`Bus.wire`).  A device's unit
serves one request at a time, so at most one transfer per device is in
flight; when the devices' nominal rates sum within the bandwidth — as for
the paper's device mix (10 MB/s bus, one tape drive of at most 3 MB/s and
one disk of 3.5 MB/s) — the bus can never be oversubscribed and is
*uncontended*: each transfer is one completion timer that calls the
caller's completion itself, and the bus tracks no flow.  Any other bus
(a narrow one, or one driven directly) keeps a list of flows.  While
their nominal rates fit in the bandwidth, every flow runs at its nominal
rate, so each transfer is still one scheduled completion and no
per-arrival replanning is needed (the *fast* regime).  The moment an
arrival would oversubscribe the bus, in-flight work is settled and the
bus switches to the *managed* regime: whenever a transfer starts or
completes, remaining work is settled at the old rates and rates are
recomputed — a small fluid-flow scheduler.  Once the load drops back
under the bandwidth, the bus returns to the fast regime.  An uncontended
bus with an observer attached runs the flow path too, which samples its
queue depth; in the fast regime that costs the same single timer, so the
simulated times are identical either way.

Transfers may carry a ``lead_in_s`` delay (device positioning time before
the data moves); the lead-in is folded into the same completion timer, so
a reposition-then-stream tape request costs one heap entry, not two.  The
timers are plain simulator callbacks: nothing waits on them, so they
allocate no :class:`~repro.simulator.events.Event`.
"""

from __future__ import annotations

import math
import typing

from repro.simulator.engine import Simulator
from repro.simulator.events import Event

_EPS_BYTES = 1e-6


class _Flow:
    __slots__ = ("remaining", "nominal", "rate", "done", "active_from", "retired")

    def __init__(self, remaining: float, nominal: float, done: typing.Callable[[None], None]):
        self.remaining = remaining
        self.nominal = nominal
        self.rate = 0.0
        #: Called with None at the instant the last byte moves.
        self.done = done
        #: Absolute time the lead-in ends and bytes start moving.
        self.active_from = 0.0
        #: Set once a switch to the managed regime replaced this flow; its
        #: fast-regime completion timer then does nothing when it fires.
        self.retired = False


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
        if not bandwidth_bytes_per_s > 0:
            raise ValueError(f"bus bandwidth must be positive, got {bandwidth_bytes_per_s}")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth_bytes_per_s)
        self.bytes_moved = 0.0
        self._flows: list[_Flow] = []
        self._last_update = sim._now
        #: True once :meth:`wire` has found that the attached devices can
        #: never oversubscribe the bus; each transfer is then one timer.
        self.uncontended = False
        #: Invalidates the managed regime's next-completion timer.
        self._timer_token = 0
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

    def wire(self, devices: typing.Iterable[typing.Any]) -> None:
        """Declare ``devices`` the only users of this bus, before any transfer.

        Each device's unit serves one request at a time, so at most one
        transfer per device is in flight.  If the devices' nominal rates
        (``rate_bytes_s``) sum within the bandwidth, the bus can never be
        oversubscribed, and it becomes :attr:`uncontended`.
        """
        self.uncontended = sum(device.rate_bytes_s for device in devices) <= self.bandwidth

    def _observe(self) -> None:
        """Sample the flow count; open/close the bus-active busy span.

        Called, with an observer attached, whenever the flow list
        changes.  Back-to-back transfers close and reopen the span at the
        same timestamp; the interval tracker merges such adjacent
        intervals when queried.
        """
        now = self.sim._now
        self.observer.queue_depth(self.name, now, len(self._flows))
        if self._flows and self._busy_since is None:
            self._busy_since = now
        elif not self._flows and self._busy_since is not None:
            self.observer.device_busy(self.name, self._busy_since, now, "bus-active")
            self._busy_since = None

    def transfer(
        self, nominal_rate_bytes_s: float, n_bytes: float, lead_in_s: float = 0.0,
        *, done: typing.Callable[[None], None] | None = None,
    ) -> Event | None:
        """Move ``n_bytes`` at up to ``nominal_rate_bytes_s``.

        Returns an event that triggers when the transfer completes.  The
        effective rate is reduced whenever the bus is oversubscribed.
        ``lead_in_s`` delays the start of the byte movement (the caller's
        positioning time) without costing a separate scheduled event.
        On an :attr:`uncontended` bus with no observer, the completion is
        pushed as the one timer the fast regime would push, with the same
        delay, and no flow is tracked.

        Given ``done`` (a device op's completion), no event is built:
        ``done(None)`` is called at the instant the event would settle,
        and ``transfer`` returns None.
        """
        if not 0 < nominal_rate_bytes_s < math.inf:
            raise ValueError(
                f"transfer rate must be finite and positive, got {nominal_rate_bytes_s}"
            )
        if not 0 <= n_bytes < math.inf:
            raise ValueError(f"transfer size must be finite and >= 0, got {n_bytes}")
        if not 0 <= lead_in_s < math.inf:
            raise ValueError(f"lead-in must be finite and >= 0, got {lead_in_s}")
        if self.fault_hook is not None:
            lead_in_s += self.fault_hook(self)
        sim = self.sim
        event = None
        if done is None:
            event = Event(sim)
            done = event._succeed_now
        self.bytes_moved += n_bytes
        if n_bytes <= _EPS_BYTES:
            if lead_in_s > 0:
                sim.defer(done, None, lead_in_s)
            elif event is not None:
                event.succeed()  # triggered now, its waiters run one hop on
            else:
                sim._schedule(done, None)
            return event
        now = sim._now
        active_from = now + lead_in_s
        if self.uncontended and self.observer is None:
            delay = (active_from - now) + n_bytes / nominal_rate_bytes_s
            if not delay < math.inf:
                raise ValueError(f"transfer of {n_bytes} bytes never completes")
            sim._schedule(done, None, max(delay, 1e-9, now * 1e-12))
            return event
        flow = _Flow(n_bytes, nominal_rate_bytes_s, done)
        flow.active_from = active_from
        if self._fast:
            if self._nominal_sum + nominal_rate_bytes_s <= self.bandwidth:
                self._nominal_sum += nominal_rate_bytes_s
                flow.rate = nominal_rate_bytes_s
                self._flows.append(flow)
                self._schedule_fast_done(flow)
                if self.observer is not None:
                    self._observe()
                return event
            self._to_managed()
        else:
            self._settle()
        self._nominal_sum += nominal_rate_bytes_s
        self._flows.append(flow)
        self._replan()
        if self.observer is not None:
            self._observe()
        return event

    # -- fast regime ----------------------------------------------------------

    def _schedule_fast_done(self, flow: _Flow) -> None:
        """One absolute completion timer: lead-in plus transfer at nominal.

        An uncontended transfer pushes its completion with this delay.
        """
        now = self.sim._now
        delay = (flow.active_from - now) + flow.remaining / flow.rate
        if not delay < math.inf:
            raise ValueError(f"transfer of {flow.remaining} bytes never completes")
        self.sim._schedule(self._fast_done, flow, max(delay, 1e-9, now * 1e-12))

    def _fast_done(self, flow: _Flow) -> None:
        if flow.retired:
            return  # superseded by a switch to the managed regime
        self._flows.remove(flow)
        self._nominal_sum -= flow.nominal
        if not self._flows:
            self._nominal_sum = 0.0  # shed float dust while idle
        if self.observer is not None:
            self._observe()
        flow.done(None)

    def _to_managed(self) -> None:
        """Settle fast-regime flows and take over scheduling.

        Each flow is replaced by a fresh copy and retired, which cancels
        its fast-regime completion timer: the copy gets a new timer if
        the bus returns to the fast regime, while the old one still sits
        in the heap.
        """
        now = self.sim._now
        flows = []
        for flow in self._flows:
            elapsed = now - flow.active_from
            if elapsed > 0:
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
            flow.retired = True
            copy = _Flow(flow.remaining, flow.nominal, flow.done)
            copy.active_from = flow.active_from
            flows.append(copy)
        self._flows = flows
        self._fast = False
        self._last_update = now

    # -- managed regime -------------------------------------------------------

    def _settle(self) -> None:
        """Advance all flows' remaining work to the current time."""
        elapsed = self.sim._now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
        self._last_update = self.sim._now

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
        now = self.sim._now
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
        self.sim.defer(self._on_timer, self._timer_token, next_done)

    def _to_fast(self) -> None:
        """Return to per-flow completion timers (load fits the bandwidth)."""
        self._fast = True
        now = self.sim._now
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
            if self.observer is not None:
                self._observe()
        for flow in finished:
            self._nominal_sum -= flow.nominal
            flow.done(None)
        self._replan()
