"""Engine behaviour: the clock, run modes, scheduling order."""

import pytest

from repro.simulator.engine import EmptySchedule, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_shows_next_event_time(self, sim):
        sim.timeout(7.0)
        sim.timeout(3.0)
        assert sim.peek() == pytest.approx(3.0)

    def test_step_on_empty_raises(self, sim):
        with pytest.raises(EmptySchedule):
            sim.step()


class TestRunModes:
    def test_run_until_time_stops_clock_there(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == pytest.approx(4.0)
        sim.run()
        assert sim.now == pytest.approx(10.0)

    def test_run_until_past_time_rejected(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(ValueError, match="cannot run until"):
            sim.run(until=0.5)

    def test_run_until_event_returns_value(self, sim):
        def worker(sim):
            yield sim.timeout(2.0)
            return 99

        assert sim.run(sim.process(worker(sim))) == 99

    def test_run_until_unreachable_event_raises(self, sim):
        orphan = sim.event()  # never triggered
        sim.timeout(1.0)
        with pytest.raises(RuntimeError, match="ran out of events"):
            sim.run(orphan)

    def test_run_drains_everything(self, sim):
        fired = []
        for delay in (1.0, 2.0, 3.0):
            timeout = sim.timeout(delay, delay)
            timeout.callbacks.append(lambda e: fired.append(e.value))
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert sim.peek() == float("inf")


class TestDeterminism:
    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []
        for tag in "abc":
            timeout = sim.timeout(5.0, tag)
            timeout.callbacks.append(lambda e: order.append(e.value))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_events_and_callbacks_interleave_in_push_order(self, sim):
        # One heap holds both: entries for the same instant run in the
        # order they were pushed, whichever kind each one is.
        order = []
        for tag in "abcdef":
            if tag in "ace":
                timeout = sim.timeout(5.0, tag)
                timeout.callbacks.append(lambda e: order.append(e.value))
            else:
                sim.defer(order.append, tag, 5.0)
        sim.run()
        assert order == list("abcdef")
        assert sim.now == 5.0

    def test_defer_runs_one_hop_later_after_queued_same_time_entries(self, sim):
        order = []

        def first(_arg):
            order.append("first")
            sim.defer(order.append, "deferred")
            sim.event().succeed().callbacks.append(lambda _e: order.append("event"))

        sim.defer(first)
        queued = sim.event()
        queued.callbacks.append(lambda _e: order.append("queued"))
        queued.succeed()
        sim.defer(order.append, "callback")
        assert order == []  # nothing runs before the simulator steps
        sim.run()
        assert order == ["first", "queued", "callback", "deferred", "event"]
        assert sim.now == 0.0

    def test_defer_passes_its_argument(self, sim):
        seen = []
        sim.defer(seen.append)
        sim.defer(seen.append, "x", 2.5)
        sim.run()
        assert seen == [None, "x"]
        assert sim.now == 2.5

    def test_simulation_is_reproducible(self):
        def trace_run():
            sim = Simulator()
            log = []

            def worker(sim, name):
                for _ in range(3):
                    yield sim.timeout(1.5)
                    log.append((sim.now, name))

            sim.process(worker(sim, "x"))
            sim.process(worker(sim, "y"))
            sim.run()
            return log

        assert trace_run() == trace_run()


class TestNonFiniteTimes:
    """A NaN time compares false with everything, so one in the heap
    silently truncates a run; the kernel refuses them at the door."""

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -float("inf")])
    def test_timeout_rejects_non_finite_delay(self, sim, delay):
        with pytest.raises(ValueError, match="timeout delay"):
            sim.timeout(delay)

    def test_rejected_nan_leaves_the_schedule_whole(self, sim):
        fired = []
        for delay in (5.0, float("nan"), 1.0, 3.0, 2.0):
            try:
                timeout = sim.timeout(delay, delay)
            except ValueError:
                continue
            timeout.callbacks.append(lambda e: fired.append(e.value))
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 5.0]
        assert sim.now == 5.0

    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-12]
    )
    def test_defer_rejects_bad_delay(self, sim, delay):
        with pytest.raises(ValueError, match="defer delay"):
            sim.defer(print, None, delay)
        assert sim.peek() == float("inf")

    def test_rejected_defer_leaves_the_schedule_whole(self, sim):
        fired = []
        for delay in (5.0, float("nan"), 1.0, -1.0, 3.0, float("inf"), 2.0):
            try:
                sim.defer(fired.append, delay, delay)
            except ValueError:
                continue
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 5.0]
        assert sim.now == 5.0

    def test_run_rejects_nan_until(self, sim):
        sim.timeout(1.0)
        with pytest.raises(ValueError, match="until"):
            sim.run(until=float("nan"))
        assert sim.now == 0.0

    def test_run_until_inf_drains(self, sim):
        sim.timeout(4.0)
        sim.run(until=float("inf"))
        assert sim.now == 4.0
