"""Event lifecycle and condition-event semantics."""

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.events import AllOf, Event, Timeout


class TestEventLifecycle:
    def test_new_event_is_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, sim):
        event = sim.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(RuntimeError, match="not been triggered"):
            sim.event().value

    def test_double_succeed_raises(self, sim):
        event = sim.event().succeed()
        with pytest.raises(RuntimeError, match="already triggered"):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_failed_event_value_raises_original(self, sim):
        boom = ValueError("boom")
        event = sim.event().fail(boom)
        event.defused = True
        assert event.exception is boom
        with pytest.raises(ValueError, match="boom"):
            event.value

    def test_succeed_after_fail_raises(self, sim):
        event = sim.event().fail(ValueError())
        event.defused = True
        with pytest.raises(RuntimeError):
            event.succeed()
        sim.run()

    def test_processed_after_run(self, sim):
        event = sim.event().succeed("x")
        assert not event.processed
        sim.run()
        assert event.processed


class TestTimeout:
    def test_timeout_fires_at_delay(self, sim):
        timeout = sim.timeout(3.5)
        sim.run()
        assert timeout.processed
        assert sim.now == pytest.approx(3.5)

    def test_timeout_carries_value(self, sim):
        timeout = sim.timeout(1.0, value="payload")
        sim.run()
        assert timeout.value == "payload"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="negative"):
            Timeout(sim, -1.0)

    def test_zero_delay_allowed(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed
        assert sim.now == 0.0

    def test_timeouts_order_by_delay(self, sim):
        order = []
        for delay in (5.0, 1.0, 3.0):
            timeout = sim.timeout(delay, value=delay)
            timeout.callbacks.append(lambda e: order.append(e.value))
        sim.run()
        assert order == [1.0, 3.0, 5.0]


class TestAllOf:
    def test_triggers_when_all_done(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        both = sim.all_of([a, b])
        sim.run()
        assert both.processed
        assert both.value == {a: "a", b: "b"}
        assert sim.now == pytest.approx(2.0)

    def test_empty_all_of_triggers_immediately(self, sim):
        empty = sim.all_of([])
        assert empty.triggered
        assert empty.value == {}

    def test_all_of_fails_if_child_fails(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("child died")

        proc = sim.process(bad(sim))
        ok = sim.timeout(5.0)
        both = sim.all_of([proc, ok])

        def waiter(sim):
            with pytest.raises(RuntimeError, match="child died"):
                yield both

        sim.process(waiter(sim))
        sim.run()

    def test_all_of_with_already_processed_children(self, sim):
        a = sim.timeout(1.0, "a")
        sim.run()
        combo = AllOf(sim, [a, sim.timeout(1.0, "b")])
        sim.run()
        assert combo.processed

    def test_cross_simulator_rejected(self, sim):
        other = Simulator()
        with pytest.raises(ValueError, match="same simulator"):
            AllOf(sim, [Event(other)])
