"""Fluid-flow bus sharing."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Simulator
from repro.storage.bus import Bus, _Flow, _water_fill

MBPS = 1024 * 1024


class TestWaterFill:
    def _flows(self, nominals):
        return [_Flow(100.0, n, None) for n in nominals]

    def test_under_capacity_everyone_gets_nominal(self):
        flows = self._flows([3.0, 4.0])
        _water_fill(flows, 10.0)
        assert [f.rate for f in flows] == [3.0, 4.0]

    def test_infinite_capacity(self):
        flows = self._flows([5.0, 6.0])
        _water_fill(flows, math.inf)
        assert [f.rate for f in flows] == [5.0, 6.0]

    def test_oversubscribed_fair_share(self):
        flows = self._flows([10.0, 10.0])
        _water_fill(flows, 10.0)
        assert [f.rate for f in flows] == [5.0, 5.0]

    def test_small_flow_keeps_nominal_big_flows_split_rest(self):
        flows = self._flows([1.0, 10.0, 10.0])
        _water_fill(flows, 9.0)
        rates = sorted(f.rate for f in flows)
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(4.0)
        assert rates[2] == pytest.approx(4.0)

    def test_total_never_exceeds_capacity(self):
        flows = self._flows([7.0, 8.0, 9.0])
        _water_fill(flows, 12.0)
        assert sum(f.rate for f in flows) <= 12.0 + 1e-9


class TestBusTransfers:
    def test_single_transfer_runs_at_nominal(self, sim):
        bus = Bus(sim, "b", bandwidth_bytes_per_s=10 * MBPS)
        done = bus.transfer(2 * MBPS, 4 * MBPS)  # 4 MB at 2 MB/s
        sim.run(done)
        assert sim.now == pytest.approx(2.0, rel=1e-6)

    def test_zero_bytes_completes_instantly(self, sim):
        bus = Bus(sim, "b")
        done = bus.transfer(MBPS, 0.0)
        assert done.triggered

    def test_invalid_args(self, sim):
        bus = Bus(sim, "b")
        with pytest.raises(ValueError):
            bus.transfer(0.0, 100.0)
        with pytest.raises(ValueError):
            bus.transfer(MBPS, -1.0)
        with pytest.raises(ValueError):
            Bus(sim, "bad", bandwidth_bytes_per_s=0.0)

    @pytest.mark.parametrize(
        "rate,size,lead_in",
        [
            (math.nan, 100.0, 0.0),
            (math.inf, 100.0, 0.0),
            (MBPS, math.nan, 0.0),
            (MBPS, math.inf, 0.0),
            (MBPS, 100.0, math.nan),
            (MBPS, 100.0, math.inf),
        ],
    )
    def test_non_finite_transfer_rejected(self, sim, rate, size, lead_in):
        bus = Bus(sim, "b")
        with pytest.raises(ValueError):
            bus.transfer(rate, size, lead_in_s=lead_in)
        assert bus.bytes_moved == 0.0
        assert sim.peek() == math.inf

    def test_nan_bandwidth_rejected(self, sim):
        with pytest.raises(ValueError):
            Bus(sim, "bad", bandwidth_bytes_per_s=math.nan)
        assert Bus(sim, "unbounded").bandwidth == math.inf

    def test_two_flows_within_capacity_are_independent(self, sim):
        bus = Bus(sim, "b", bandwidth_bytes_per_s=10 * MBPS)
        first = bus.transfer(2 * MBPS, 2 * MBPS)   # 1 s alone
        second = bus.transfer(4 * MBPS, 4 * MBPS)  # 1 s alone
        sim.run()
        assert sim.now == pytest.approx(1.0, rel=1e-6)
        assert first.processed and second.processed

    def test_oversubscription_stretches_transfers(self, sim):
        # Two 8 MB/s devices on a 8 MB/s bus: each runs at 4 MB/s.
        bus = Bus(sim, "b", bandwidth_bytes_per_s=8 * MBPS)
        done_a = bus.transfer(8 * MBPS, 8 * MBPS)
        done_b = bus.transfer(8 * MBPS, 8 * MBPS)
        sim.run()
        assert sim.now == pytest.approx(2.0, rel=1e-3)
        assert done_a.processed and done_b.processed

    def test_late_arrival_shares_remaining_bandwidth(self, sim):
        bus = Bus(sim, "b", bandwidth_bytes_per_s=8 * MBPS)
        first = bus.transfer(8 * MBPS, 8 * MBPS)  # would finish at t=1 alone

        def late_starter(sim):
            yield sim.timeout(0.5)
            yield bus.transfer(8 * MBPS, 4 * MBPS)

        sim.process(late_starter(sim))
        sim.run(first)
        # First: 4 MB alone (0.5 s), then 4 MB at half rate (1.0 s).
        assert sim.now == pytest.approx(1.5, rel=1e-3)

    def test_bytes_moved_accounting(self, sim):
        bus = Bus(sim, "b")
        bus.transfer(MBPS, 1000.0)
        bus.transfer(MBPS, 500.0)
        sim.run()
        assert bus.bytes_moved == pytest.approx(1500.0)

    def test_tiny_residuals_cannot_stall_the_clock(self):
        # Regression: at large timestamps a sub-resolution completion delay
        # must not spin the settle/replan loop forever.
        sim = Simulator(start_time=4096.9)
        bus = Bus(sim, "b", bandwidth_bytes_per_s=8 * MBPS)
        done = bus.transfer(3.5 * MBPS, 1.5e-6)  # just above the epsilon
        sim.run(done)
        assert done.processed

    @given(
        sizes=st.lists(
            st.floats(min_value=0.1, max_value=8.0), min_size=1, max_size=6
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounded_by_capacity_and_nominal(self, sizes):
        """All flows finish, no earlier than capacity allows and no later
        than fully serialized transfers would take."""
        sim = Simulator()
        bus = Bus(sim, "b", bandwidth_bytes_per_s=4 * MBPS)
        for mb in sizes:
            bus.transfer(2 * MBPS, mb * MBPS)
        sim.run()
        total_mb = sum(sizes)
        lower = total_mb / 4.0  # capacity-bound
        upper = total_mb / 2.0 + 1e-3  # fully serialized at nominal
        assert lower - 1e-3 <= sim.now <= upper


class TestUncontendedBus:
    """A bus whose wired devices fit its bandwidth: one timer per transfer."""

    def test_standalone_bus_is_not_uncontended(self, sim):
        assert not Bus(sim, "b", 10 * MBPS).uncontended

    def test_wire_compares_the_devices_rates_with_the_bandwidth(self, sim):
        bus = Bus(sim, "b", 10 * MBPS)
        bus.wire([SimpleNamespace(rate_bytes_s=4 * MBPS)] * 2)
        assert bus.uncontended
        bus.wire([SimpleNamespace(rate_bytes_s=4 * MBPS)] * 3)
        assert not bus.uncontended

    def test_timer_transfer_tracks_no_flow(self, sim):
        bus = Bus(sim, "b", 10 * MBPS)
        bus.wire([SimpleNamespace(rate_bytes_s=2 * MBPS)])
        done = bus.transfer(2 * MBPS, 4 * MBPS, lead_in_s=0.5)
        assert bus._flows == []
        sim.run()
        assert done.processed and sim.now == pytest.approx(2.5)

    @staticmethod
    def _finishes(devices, start_s, bandwidth, wired, events):
        """``(finish time, device, transfer)`` in callback order.

        Each device issues its chain of ``(gap, MB, lead-in)`` transfers
        one at a time, as a device's unit does, the next ``gap`` seconds
        after the previous one finishes.
        """
        sim = Simulator(start_time=start_s)
        bus = Bus(sim, "b", bandwidth)
        if wired:
            bus.wire([SimpleNamespace(rate_bytes_s=rate) for rate, _chain in devices])
        log = []

        def issue(op):
            device, index = op
            rate, chain = devices[device]
            _gap, mb, lead_in = chain[index]

            def finished(_value):
                log.append((sim.now, device, index))
                if index + 1 < len(chain):
                    sim.defer(issue, (device, index + 1), chain[index + 1][0])

            if events:
                bus.transfer(rate, mb * MBPS, lead_in).callbacks.append(
                    lambda event: finished(event.value)
                )
            else:
                bus.transfer(rate, mb * MBPS, lead_in, done=finished)

        for device, (_rate, chain) in enumerate(devices):
            sim.defer(issue, (device, 0), chain[0][0])
        sim.run()
        return log

    @given(
        devices=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=4.0).map(lambda mb_s: mb_s * MBPS),
                st.lists(
                    st.tuples(
                        st.floats(min_value=0.0, max_value=2.0),   # gap before
                        st.floats(min_value=0.0, max_value=6.0),   # MB
                        st.floats(min_value=0.0, max_value=1.0),   # lead-in
                    ),
                    min_size=1, max_size=5,
                ),
            ),
            min_size=1, max_size=4,
        ),
        start_s=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
        headroom=st.one_of(st.just(math.inf), st.floats(min_value=1.01, max_value=3.0)),
        events=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_timer_bus_finishes_like_the_flow_path(self, devices, start_s, headroom, events):
        """Every completion instant and the callback order, to the bit."""
        bandwidth = sum(rate for rate, _chain in devices) * headroom
        timer = self._finishes(devices, start_s, bandwidth, wired=True, events=events)
        flows = self._finishes(devices, start_s, bandwidth, wired=False, events=events)
        assert timer == flows
        assert len(timer) == sum(len(chain) for _rate, chain in devices)
