"""Resource, Container and Store semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Simulator
from repro.simulator.resources import Container, Resource, Store


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_nan_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=float("nan"))

    def test_grants_up_to_capacity_immediately(self, sim):
        res = Resource(sim, capacity=2)
        first, second, third = res.request(), res.request(), res.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert res.count == 2

    def test_release_grants_next_in_fifo_order(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()
        queued = [res.request() for _ in range(3)]
        res.release(holder)
        assert queued[0].triggered
        assert not queued[1].triggered

    def test_release_unknown_request_raises(self, sim):
        res = Resource(sim, capacity=1)
        stranger = res.request()
        res.release(stranger)
        with pytest.raises(RuntimeError, match="does not hold"):
            res.release(stranger)

    def test_mutual_exclusion_in_processes(self, sim):
        res = Resource(sim, capacity=1)
        active = []
        overlaps = []

        def worker(sim, name):
            req = res.request()
            yield req
            active.append(name)
            if len(active) > 1:
                overlaps.append(tuple(active))
            yield sim.timeout(1.0)
            active.remove(name)
            res.release(req)

        for name in "abc":
            sim.process(worker(sim, name))
        sim.run()
        assert not overlaps
        assert sim.now == pytest.approx(3.0)


class TestContainer:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Container(sim, capacity=0)
        with pytest.raises(ValueError):
            Container(sim, capacity=5, init=6)

    def test_nan_capacity_and_amounts_rejected(self, sim):
        with pytest.raises(ValueError):
            Container(sim, capacity=float("nan"))
        box = Container(sim, capacity=10, init=5)
        with pytest.raises(ValueError):
            box.get(float("nan"))
        with pytest.raises(ValueError):
            box.put(float("nan"))
        got = box.get(1)
        assert got.triggered and box.level == pytest.approx(4)

    def test_put_then_get(self, sim):
        box = Container(sim, capacity=10)
        box.put(4)
        got = box.get(3)
        assert got.triggered
        assert box.level == pytest.approx(1)

    def test_get_blocks_until_available(self, sim):
        box = Container(sim, capacity=10)
        got = box.get(5)
        assert not got.triggered
        box.put(2)
        assert not got.triggered
        box.put(3)
        assert got.triggered

    def test_put_blocks_when_full(self, sim):
        box = Container(sim, capacity=4, init=4)
        put = box.put(1)
        assert not put.triggered
        box.get(2)
        assert put.triggered

    def test_fifo_no_overtaking_for_gets(self, sim):
        box = Container(sim, capacity=10)
        big = box.get(8)
        small = box.get(1)
        box.put(5)
        # The small get must not overtake the big one.
        assert not big.triggered
        assert not small.triggered
        box.put(5)
        assert big.triggered and small.triggered

    def test_oversized_requests_fail(self, sim):
        box = Container(sim, capacity=3)
        over_put = box.put(5)
        over_get = box.get(5)
        assert not over_put.ok
        assert not over_get.ok
        over_put.defused = True
        over_get.defused = True
        sim.run()

    def test_negative_amount_rejected(self, sim):
        box = Container(sim, capacity=3)
        with pytest.raises(ValueError):
            box.put(-1)

    def test_epsilon_dust_does_not_deadlock(self, sim):
        # A get short by float dust must still be served (the exact
        # producer/consumer pattern of the interleaved disk buffer).
        box = Container(sim, capacity=10, init=0)
        box.put(10 - 1e-9)
        got = box.get(10)
        assert got.triggered

    @given(
        amounts=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=20)
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation_under_put_get_pairs(self, amounts):
        sim = Simulator()
        box = Container(sim, capacity=1000.0)
        for amount in amounts:
            box.put(amount)
        for amount in amounts:
            assert box.get(amount).triggered
        assert box.level == pytest.approx(0.0, abs=1e-6)


class TestStore:
    def test_nan_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=float("nan"))

    def test_put_get_fifo(self, sim):
        store = Store(sim)
        for item in ("a", "b", "c"):
            store.put(item)
        values = [store.get().value for _ in range(3)]
        assert values == ["a", "b", "c"]

    def test_get_blocks_until_item(self, sim):
        store = Store(sim)
        got = store.get()
        assert not got.triggered
        store.put("late")
        assert got.triggered
        assert got.value == "late"

    def test_capacity_blocks_puts(self, sim):
        store = Store(sim, capacity=1)
        store.put("first")
        second = store.put("second")
        assert not second.triggered
        store.get()
        assert second.triggered

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)
