"""Busy-interval and counter bookkeeping of a traced simulation run.

Devices report each operation to a :class:`JoinObserver` as one closed
busy interval; :mod:`repro.obs.metrics` merges, clips and divides those
intervals into busy time and utilization.
"""

import pytest

from repro.obs.metrics import device_busy_s, device_utilization
from repro.obs.recorder import JoinObserver


def busy_disk(*intervals):
    obs = JoinObserver()
    for start, end in intervals:
        obs.device_busy("disk", start, end, "op")
    return obs


class TestIntervalTracker:
    """Busy time of one device, from its logged intervals."""

    def test_interval_cannot_end_before_start(self):
        with pytest.raises(ValueError):
            busy_disk((5.0, 4.0))

    def test_busy_time_clipping(self):
        obs = busy_disk((0.0, 10.0))
        assert device_busy_s(obs, (4.0, 6.0)) == {"disk": pytest.approx(2.0)}

    def test_utilization(self):
        obs = busy_disk((0.0, 5.0))
        assert device_utilization(obs, (0.0, 10.0)) == {"disk": pytest.approx(0.5)}
        with pytest.raises(ValueError, match="empty utilization window"):
            device_utilization(obs, (3.0, 3.0))

    def test_overlapping_intervals_merge(self):
        # Regression: overlapping intervals used to be summed raw, so a
        # device with concurrent operations could report > 100 % busy.
        obs = busy_disk((0.0, 6.0), (2.0, 4.0), (5.0, 9.0))
        assert device_busy_s(obs, (0.0, 9.0)) == {"disk": pytest.approx(9.0)}
        assert device_utilization(obs, (0.0, 9.0)) == {"disk": pytest.approx(1.0)}

    def test_identical_intervals_count_once(self):
        obs = busy_disk((1.0, 3.0), (1.0, 3.0))
        assert device_busy_s(obs, (0.0, 10.0)) == {"disk": pytest.approx(2.0)}

    def test_unsorted_overlapping_intervals_merge(self):
        obs = busy_disk((4.0, 8.0), (0.0, 5.0))
        assert device_busy_s(obs, (0.0, 10.0)) == {"disk": pytest.approx(8.0)}
        assert device_busy_s(obs, (2.0, 6.0)) == {"disk": pytest.approx(4.0)}


class TestTraceCollector:
    """Named counters of one traced run."""

    def test_counters(self):
        obs = JoinObserver()
        assert obs.counters.get("hits", 0.0) == 0.0
        obs.count("hits")
        obs.count("hits", 2.5)
        assert obs.counters["hits"] == pytest.approx(3.5)
