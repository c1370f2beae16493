"""``Bus.transfer(done=)``: the completion as a callback, with no event.

A device op passes its completion as ``done``; the event form is the
same flow with ``done=event._succeed_now``.  Both must finish every
transfer at the same instant and in the same order, and call back
exactly once, including across a switch to the managed regime and
back, which leaves the old fast-regime timers in the heap.
"""

import pytest

from repro.simulator.engine import Simulator
from repro.storage.bus import Bus

MBPS = 1024 * 1024

#: (start time, nominal rate, bytes, lead-in) per transfer, on an 8 MB/s
#: bus: the third arrival oversubscribes it, and once it ends the load
#: fits again.
SCENARIOS = {
    "fast": [(0.0, 2 * MBPS, 2 * MBPS, 0.0), (0.0, 4 * MBPS, 4 * MBPS, 0.5)],
    "managed-and-back": [
        (0.0, 3 * MBPS, 9 * MBPS, 0.0),
        (0.2, 3 * MBPS, 6 * MBPS, 0.1),
        (0.5, 4 * MBPS, 1 * MBPS, 0.0),
        (0.5, 2 * MBPS, 0.0, 0.0),
        (0.6, 2 * MBPS, 0.0, 0.3),
    ],
}


def finish_log(scenario, callbacks):
    """``(transfer, finish time)`` in finishing order; calls per transfer."""
    sim = Simulator()
    bus = Bus(sim, "b", 8 * MBPS)
    log, calls = [], [0] * len(SCENARIOS[scenario])

    def start(index):
        _at, rate, size, lead_in = SCENARIOS[scenario][index]

        def done(value):
            assert value is None
            calls[index] += 1
            log.append((index, sim.now))

        if callbacks:
            assert bus.transfer(rate, size, lead_in, done=done) is None
        else:
            bus.transfer(rate, size, lead_in).callbacks.append(lambda event: done(event.value))

    for index, (at, *_rest) in enumerate(SCENARIOS[scenario]):
        sim.defer(start, index, at)
    sim.run()
    return log, calls


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_callback_form_finishes_like_the_event_form(scenario):
    by_event, event_calls = finish_log(scenario, callbacks=False)
    by_callback, callback_calls = finish_log(scenario, callbacks=True)
    assert by_callback == by_event
    assert callback_calls == event_calls == [1] * len(SCENARIOS[scenario])


def test_managed_round_trip_keeps_stale_timers_inert():
    log, _calls = finish_log("managed-and-back", callbacks=True)
    finish = dict(log)
    # Transfer 0 ran alone at 3 MB/s until the managed spell slowed it,
    # so it ends after its fast-regime timer (3.0 s) would have fired.
    assert finish[0] > 3.0
    assert finish[3] == 0.5  # zero bytes, no lead-in: one hop, same instant
    assert finish[4] == pytest.approx(0.9)


def test_zero_byte_callback_runs_one_hop_later(sim):
    bus = Bus(sim, "b")
    order = []
    bus.transfer(MBPS, 0.0, done=lambda _none: order.append("transfer"))
    sim.defer(order.append, "queued after")
    assert order == []
    sim.run()
    assert order == ["transfer", "queued after"]
