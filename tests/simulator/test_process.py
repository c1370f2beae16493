"""Process semantics: return values, failure propagation, composition."""

import pytest

from repro.simulator.process import Process, ProcessCrash


class TestProcessBasics:
    def test_process_returns_generator_value(self, sim):
        def worker(sim):
            yield sim.timeout(2.0)
            return "result"

        proc = sim.process(worker(sim))
        assert sim.run(proc) == "result"
        assert proc.value == "result"

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError, match="generator"):
            Process(sim, lambda: None)

    def test_is_alive_until_done(self, sim):
        def worker(sim):
            yield sim.timeout(1.0)

        # A process is an event that triggers when its generator returns.
        proc = sim.process(worker(sim))
        assert not proc.triggered
        sim.run()
        assert proc.triggered

    def test_named_process(self, sim):
        def worker(sim):
            yield sim.timeout(0.1)

        proc = sim.process(worker(sim), name="reader")
        assert proc.name == "reader"
        sim.run()

    def test_immediate_return_without_yield(self, sim):
        def instant(sim):
            return 7
            yield  # pragma: no cover - makes this a generator

        proc = sim.process(instant(sim))
        assert sim.run(proc) == 7

    def test_yield_from_subgenerator(self, sim):
        def inner(sim):
            yield sim.timeout(1.0)
            return 10

        def outer(sim):
            value = yield from inner(sim)
            yield sim.timeout(1.0)
            return value + 1

        proc = sim.process(outer(sim))
        assert sim.run(proc) == 11
        assert sim.now == pytest.approx(2.0)


class TestProcessFailures:
    def test_unhandled_exception_crashes_run(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise ValueError("kaput")

        sim.process(bad(sim))
        with pytest.raises(ProcessCrash, match="kaput"):
            sim.run()

    def test_waiter_can_catch_child_failure(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise ValueError("kaput")

        child = sim.process(bad(sim))

        def parent(sim):
            try:
                yield child
            except ValueError:
                return "caught"

        parent_proc = sim.process(parent(sim))
        assert sim.run(parent_proc) == "caught"

    def test_yielding_non_event_fails_process(self, sim):
        def confused(sim):
            yield 42

        sim.process(confused(sim))
        with pytest.raises(ProcessCrash, match="non-event"):
            sim.run()

    def test_failure_before_first_yield(self, sim):
        def dead_on_arrival(sim):
            raise RuntimeError("instant death")
            yield  # pragma: no cover

        sim.process(dead_on_arrival(sim))
        with pytest.raises(ProcessCrash, match="instant death"):
            sim.run()


class TestProcessComposition:
    def test_process_waits_on_process(self, sim):
        def slow(sim):
            yield sim.timeout(5.0)
            return "slow done"

        def waiter(sim, other):
            value = yield other
            return f"saw: {value}"

        slow_proc = sim.process(slow(sim))
        wait_proc = sim.process(waiter(sim, slow_proc))
        assert sim.run(wait_proc) == "saw: slow done"
        assert sim.now == pytest.approx(5.0)

    def test_two_processes_interleave(self, sim):
        log = []

        def ticker(sim, name, period, count):
            for _ in range(count):
                yield sim.timeout(period)
                log.append((sim.now, name))

        sim.process(ticker(sim, "a", 2.0, 3))
        sim.process(ticker(sim, "b", 3.0, 2))
        sim.run()
        # At t=6 both fire; b's timeout was scheduled first (at t=3).
        assert log == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a")]

    def test_waiting_on_already_finished_process(self, sim):
        def quick(sim):
            yield sim.timeout(1.0)
            return "early"

        quick_proc = sim.process(quick(sim))
        sim.run()

        def late(sim):
            value = yield quick_proc
            return value

        late_proc = sim.process(late(sim))
        assert sim.run(late_proc) == "early"
