"""Derived utilization metrics: unit tests on hand-built observers."""

import pytest

from repro.obs.metrics import (
    buffer_utilization,
    device_busy_s,
    device_utilization,
    disk_balance,
    overlap_fraction,
    summarize,
)
from repro.obs.recorder import JoinObserver


def observer_with(intervals):
    obs = JoinObserver()
    for device, start, end in intervals:
        obs.device_busy(device, start, end, "op")
    return obs


class TestDeviceUtilization:
    def test_merges_overlapping_operations(self):
        # Two concurrent operations on one device must not double-count.
        obs = observer_with([("disk0", 0.0, 6.0), ("disk0", 4.0, 8.0)])
        util = device_utilization(obs, (0.0, 10.0))
        assert util == {"disk0": pytest.approx(0.8)}

    def test_clips_to_window(self):
        obs = observer_with([("tape_r", 0.0, 10.0)])
        assert device_utilization(obs, (5.0, 10.0)) == {
            "tape_r": pytest.approx(1.0)
        }

    def test_empty_window_raises(self):
        obs = observer_with([("tape_r", 0.0, 1.0)])
        with pytest.raises(ValueError, match="empty utilization window"):
            device_utilization(obs, (2.0, 2.0))

    def test_busy_seconds(self):
        obs = observer_with([("tape_r", 0.0, 3.0), ("disk0", 1.0, 2.0)])
        assert device_busy_s(obs, (0.0, 10.0)) == {
            "disk0": pytest.approx(1.0),
            "tape_r": pytest.approx(3.0),
        }


class TestOverlapFraction:
    def test_fully_concurrent_is_one(self):
        obs = observer_with([("tape_r", 0.0, 10.0), ("tape_s", 2.0, 6.0)])
        assert overlap_fraction(obs, ["tape_r"], ["tape_s"], (0.0, 10.0)) == (
            pytest.approx(1.0)
        )

    def test_strictly_serialized_is_zero(self):
        obs = observer_with([("tape_r", 0.0, 5.0), ("tape_s", 5.0, 10.0)])
        assert overlap_fraction(obs, ["tape_r"], ["tape_s"], (0.0, 10.0)) == 0.0

    def test_partial_overlap(self):
        # tape_s busy 4s, 2 of them under tape_r.
        obs = observer_with([("tape_r", 0.0, 6.0), ("tape_s", 4.0, 8.0)])
        assert overlap_fraction(obs, ["tape_r"], ["tape_s"], (0.0, 10.0)) == (
            pytest.approx(0.5)
        )

    def test_idle_group_is_zero(self):
        obs = observer_with([("tape_r", 0.0, 5.0)])
        assert overlap_fraction(obs, ["tape_r"], ["tape_s"], (0.0, 10.0)) == 0.0

    def test_group_busy_is_union_over_devices(self):
        # disk0 and disk1 alternate; together they cover tape_r's span.
        obs = observer_with(
            [("tape_r", 0.0, 4.0), ("disk0", 0.0, 2.0), ("disk1", 2.0, 4.0)]
        )
        assert overlap_fraction(
            obs, ["tape_r"], ["disk0", "disk1"], (0.0, 4.0)
        ) == pytest.approx(1.0)

    def test_symmetry(self):
        obs = observer_with([("tape_r", 0.0, 6.0), ("tape_s", 4.0, 8.0)])
        window = (0.0, 10.0)
        assert overlap_fraction(
            obs, ["tape_r"], ["tape_s"], window
        ) == pytest.approx(overlap_fraction(obs, ["tape_s"], ["tape_r"], window))


class TestDiskBalance:
    def test_balanced_stripe_is_one(self):
        obs = observer_with([("disk0", 0.0, 4.0), ("disk1", 1.0, 5.0)])
        assert disk_balance(obs, (0.0, 10.0)) == pytest.approx(1.0)

    def test_idle_disk_is_zero(self):
        obs = observer_with([("disk0", 0.0, 4.0), ("disk1", 0.0, 0.0)])
        assert disk_balance(obs, (0.0, 10.0)) == 0.0

    def test_skew_is_ratio(self):
        obs = observer_with([("disk0", 0.0, 4.0), ("disk1", 0.0, 1.0)])
        assert disk_balance(obs, (0.0, 10.0)) == pytest.approx(0.25)

    def test_no_disks_is_one(self):
        obs = observer_with([("tape_r", 0.0, 4.0)])
        assert disk_balance(obs, (0.0, 10.0)) == 1.0

    def test_all_disks_idle_is_one(self):
        obs = observer_with([("disk0", 0.0, 0.0), ("disk1", 2.0, 2.0)])
        assert disk_balance(obs, (0.0, 10.0)) == 1.0


class TestBufferUtilization:
    def test_percentages_and_time_average(self):
        obs = JoinObserver()
        for t, total, even, odd in [
            (0.0, 0.0, 0.0, 0.0),
            (1.0, 50.0, 50.0, 0.0),
            (3.0, 100.0, 50.0, 50.0),
            (4.0, 0.0, 0.0, 0.0),
        ]:
            obs.timeseries("buf.total").record(t, total)
            obs.timeseries("buf.even").record(t, even)
            obs.timeseries("buf.odd").record(t, odd)
        curve = buffer_utilization(obs, "buf", 100.0, (0.0, 4.0))
        assert curve["times_s"] == [0.0, 1.0, 3.0, 4.0]
        assert curve["total_pct"] == [0.0, 50.0, 100.0, 0.0]
        assert curve["even_pct"] == [0.0, 50.0, 50.0, 0.0]
        assert curve["odd_pct"] == [0.0, 0.0, 50.0, 0.0]
        assert curve["step2_window_s"] == [0.0, 4.0]
        # 0 for 1s, 50 for 2s, 100 for 1s -> 200/4 = 50 % of capacity.
        assert curve["mean_total_pct"] == pytest.approx(50.0)

    def test_window_excludes_outside_samples(self):
        obs = JoinObserver()
        for t in (0.0, 2.0, 4.0):
            obs.timeseries("buf.total").record(t, 10.0)
            obs.timeseries("buf.even").record(t, 10.0)
            obs.timeseries("buf.odd").record(t, 0.0)
        curve = buffer_utilization(obs, "buf", 100.0, (1.0, 3.0))
        assert curve["times_s"] == [2.0]


class TestSummarize:
    def observer(self):
        obs = JoinObserver()
        obs.device_busy("tape_r", 0.0, 6.0, "tape-read")
        obs.device_busy("tape_s", 4.0, 8.0, "tape-read")
        obs.device_busy("disk0", 0.0, 5.0, "disk-read")
        obs.device_busy("disk1", 0.0, 5.0, "disk-write")
        obs.queue_depth("disk0", 0.0, 0)
        obs.queue_depth("disk0", 1.0, 2)
        obs.span("II.0.b0", 5.0, 6.0, "unit")
        obs.count("unit_restarts", 1.0)
        return obs

    def test_summary_shape_and_values(self):
        summary = summarize(self.observer(), response_s=10.0, step1_s=4.0)
        assert summary["window_s"] == [0.0, 10.0]
        assert summary["device_utilization"]["tape_r"] == pytest.approx(0.6)
        assert summary["device_busy_s"]["tape_s"] == pytest.approx(4.0)
        assert summary["disk_balance"] == pytest.approx(1.0)
        assert summary["tape_overlap_fraction"] == pytest.approx(0.5)
        assert summary["counters"] == {"unit_restarts": 1.0}
        assert summary["spans"] == {
            "n_units": 1,
            "n_unit_retries": 0,
            "n_fault_retries": 0,
        }
        assert summary["queue_depth_max"] == {"disk0": 2.0}
        # Step II window [4, 10]: tape_r's remaining 2 busy seconds run
        # entirely under tape_s's [4, 8] — the lighter drive fully
        # overlaps, so the fraction is 1.0.
        assert summary["step2_tape_overlap_fraction"] == pytest.approx(1.0)

    def test_summary_is_json_serializable(self):
        import json

        json.dumps(summarize(self.observer(), 10.0, 4.0))

    def test_zero_length_run_has_no_utilization(self):
        obs = JoinObserver()
        summary = summarize(obs, response_s=0.0, step1_s=0.0)
        assert summary["device_utilization"] == {}
        assert "step2_tape_overlap_fraction" not in summary

    def test_single_tape_overlap_is_zero(self):
        obs = JoinObserver()
        obs.device_busy("tape_r", 0.0, 5.0, "tape-read")
        summary = summarize(obs, response_s=10.0, step1_s=2.0)
        assert summary["tape_overlap_fraction"] == 0.0
        assert summary["step2_tape_overlap_fraction"] == 0.0
