"""JoinObserver recording surface and its TimeSeries."""

import pytest

from repro.obs.metrics import device_busy_s
from repro.obs.recorder import BusyInterval, JoinObserver, Span, TimeSeries


class TestDeviceRecording:
    def test_device_busy_appends_to_the_one_log(self):
        obs = JoinObserver()
        obs.device_busy("tape_r", 1.0, 3.0, "tape-read")
        assert obs.intervals == [BusyInterval("tape_r", "tape-read", 1.0, 3.0)]
        assert device_busy_s(obs, (0.0, 10.0)) == {"tape_r": pytest.approx(2.0)}

    def test_device_busy_rejects_inverted_interval(self):
        obs = JoinObserver()
        with pytest.raises(ValueError, match="ends before it starts"):
            obs.device_busy("tape_r", 3.0, 1.0, "tape-read")

    def test_devices_sorted_and_deduplicated(self):
        obs = JoinObserver()
        obs.device_busy("tape_s", 0.0, 1.0, "tape-read")
        obs.device_busy("disk0", 0.0, 1.0, "disk-read")
        obs.device_busy("tape_s", 1.0, 2.0, "tape-write")
        assert obs.devices() == ["disk0", "tape_s"]

    def test_queue_depth_becomes_time_series(self):
        obs = JoinObserver()
        obs.queue_depth("disk0", 0.0, 0)
        obs.queue_depth("disk0", 1.0, 3)
        series = obs.series["queue.disk0"]
        assert (series.times, series.values) == ([0.0, 1.0], [0.0, 3.0])
        assert series.max() == 3.0

    def test_timeseries_is_memoized(self):
        obs = JoinObserver()
        assert obs.timeseries("a") is obs.timeseries("a")
        assert list(obs.series) == ["a"]


class TestPhaseRecording:
    def test_span_records_and_filters_by_category(self):
        obs = JoinObserver()
        obs.span("Step I", 0.0, 5.0, "step")
        obs.span("II.0.b1", 5.0, 6.0, "unit")
        obs.span("II.0.b2", 6.0, 7.0, "unit")
        assert obs.spans_in("unit") == [
            Span("II.0.b1", "unit", 5.0, 6.0),
            Span("II.0.b2", "unit", 6.0, 7.0),
        ]
        assert obs.spans_in("step") == [Span("Step I", "step", 0.0, 5.0)]
        assert obs.spans_in("missing") == []

    def test_span_rejects_inverted_interval(self):
        obs = JoinObserver()
        with pytest.raises(ValueError, match="ends before it starts"):
            obs.span("bad", 2.0, 1.0)

    def test_count_accumulates_into_trace_counters(self):
        obs = JoinObserver()
        obs.count("fault_retries")
        obs.count("fault_retries", 2.0)
        assert obs.counters == {"fault_retries": pytest.approx(3.0)}

    def test_each_observer_records_separately(self):
        first, second = JoinObserver(), JoinObserver()
        first.timeseries("s_buffer.total").record(0.0, 1.0)
        first.count("hits")
        assert second.series == {} and second.counters == {}


class TestTimeSeries:
    def test_record_and_lookup(self):
        series = TimeSeries("m")
        series.record(0.0, 1.0)
        series.record(5.0, 3.0)
        assert series.value_at(0.0) == 1.0
        assert series.value_at(4.9) == 1.0
        assert series.value_at(5.0) == 3.0
        assert series.value_at(100.0) == 3.0

    def test_time_must_not_go_backwards(self):
        series = TimeSeries("m")
        series.record(2.0, 1.0)
        with pytest.raises(ValueError, match="backwards"):
            series.record(1.0, 2.0)

    def test_same_time_overwrites(self):
        series = TimeSeries("m")
        series.record(1.0, 5.0)
        series.record(1.0, 7.0)
        assert len(series) == 1
        assert series.value_at(1.0) == 7.0

    def test_lookup_before_first_sample_raises(self):
        series = TimeSeries("m")
        series.record(10.0, 1.0)
        with pytest.raises(ValueError, match="precedes"):
            series.value_at(5.0)

    def test_empty_series_operations_raise(self):
        series = TimeSeries("m")
        for operation in (series.max, series.time_average):
            with pytest.raises(ValueError, match="empty"):
                operation()
        with pytest.raises(ValueError):
            series.value_at(0.0)

    def test_max(self):
        series = TimeSeries("m")
        for t, v in [(0.0, 2.0), (1.0, 8.0), (2.0, 4.0)]:
            series.record(t, v)
        assert series.max() == 8.0
        assert (series.times, series.values) == ([0.0, 1.0, 2.0], [2.0, 8.0, 4.0])

    def test_time_average_step_function(self):
        series = TimeSeries("m")
        series.record(0.0, 0.0)
        series.record(2.0, 10.0)  # 0 for 2s, then 10 for 2s
        assert series.time_average(0.0, 4.0) == pytest.approx(5.0)

    def test_time_average_window_inside_plateau(self):
        series = TimeSeries("m")
        series.record(0.0, 4.0)
        assert series.time_average(1.0, 3.0) == pytest.approx(4.0)

    def test_time_average_inverted_window_raises(self):
        # Regression: an inverted window used to silently return
        # value_at(start) instead of flagging the caller's bug.
        series = TimeSeries("m")
        series.record(0.0, 4.0)
        series.record(2.0, 8.0)
        with pytest.raises(ValueError, match="inverted window"):
            series.time_average(3.0, 1.0)

    def test_time_average_zero_width_window(self):
        series = TimeSeries("m")
        series.record(0.0, 4.0)
        series.record(2.0, 8.0)
        assert series.time_average(1.0, 1.0) == pytest.approx(4.0)
        assert series.time_average(2.0, 2.0) == pytest.approx(8.0)

    def test_time_average_window_before_first_sample(self):
        # A window edge before the first sample carries that sample's
        # value backward instead of raising like value_at does.
        series = TimeSeries("m")
        series.record(2.0, 6.0)
        series.record(4.0, 0.0)
        assert series.time_average(0.0, 4.0) == pytest.approx(6.0)
        assert series.time_average(0.0, 2.0) == pytest.approx(6.0)
