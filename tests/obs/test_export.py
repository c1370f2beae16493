"""Trace export formats and their schema validation."""

import json

import pytest

from repro.obs.export import chrome_trace_events, write_chrome_trace, write_jsonl
from repro.obs.recorder import JoinObserver
from repro.obs.validate import (
    TraceValidationError,
    main,
    validate_chrome_trace,
    validate_directory,
    validate_jsonl,
)


@pytest.fixture
def observer():
    obs = JoinObserver()
    obs.device_busy("tape_r", 0.0, 2.0, "tape-read")
    obs.device_busy("disk0", 1.0, 3.0, "disk-write")
    obs.span("Step I", 0.0, 2.0, "step")
    obs.queue_depth("disk0", 0.0, 0)
    obs.queue_depth("disk0", 1.5, 1)
    obs.count("unit_restarts", 2.0)
    return obs


class TestJsonl:
    def test_round_trip_validates(self, observer, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(observer, str(path), {"symbol": "CDT-GH"})
        # meta + 2 intervals + 1 span + 2 samples + 1 counter
        assert validate_jsonl(str(path)) == 7

    def test_meta_header_first_with_devices(self, observer, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(observer, str(path), {"symbol": "CDT-GH", "scale": 0.1})
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "meta"
        assert header["devices"] == ["disk0", "tape_r"]
        assert header["symbol"] == "CDT-GH"
        assert header["scale"] == 0.1

    def test_every_line_is_typed_json(self, observer, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(observer, str(path))
        types = [json.loads(line)["type"] for line in path.read_text().splitlines()]
        assert types == ["meta", "interval", "interval", "span", "sample",
                         "sample", "counter"]


class TestChromeTrace:
    def test_round_trip_validates(self, observer, tmp_path):
        path = tmp_path / "run.trace.json"
        write_chrome_trace(observer, str(path), {"symbol": "CDT-GH"})
        assert validate_chrome_trace(str(path)) > 0
        document = json.loads(path.read_text())
        assert document["otherData"]["symbol"] == "CDT-GH"
        assert document["displayTimeUnit"] == "ms"

    def test_devices_become_named_threads(self, observer):
        events = chrome_trace_events(observer, {"symbol": "CDT-GH"})
        names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names == {"phases", "disk0", "tape_r"}
        process = [
            event for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        ]
        assert process[0]["args"]["name"] == "CDT-GH"

    def test_timestamps_scaled_to_microseconds(self, observer):
        events = chrome_trace_events(observer)
        reads = [e for e in events if e["ph"] == "X" and e["name"] == "tape-read"]
        assert reads[0]["ts"] == pytest.approx(0.0)
        assert reads[0]["dur"] == pytest.approx(2.0e6)

    def test_series_become_counter_events(self, observer):
        events = chrome_trace_events(observer)
        counters = [e for e in events if e["ph"] == "C"]
        assert [e["args"]["value"] for e in counters] == [0.0, 1.0]


class TestValidatorRejections:
    def write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_missing_meta_header(self, tmp_path):
        path = self.write(
            tmp_path,
            ['{"type": "counter", "name": "x", "value": 1}'],
        )
        with pytest.raises(TraceValidationError, match="meta header"):
            validate_jsonl(path)

    def test_duplicate_meta_header(self, tmp_path):
        line = '{"type": "meta", "devices": []}'
        path = self.write(tmp_path, [line, line])
        with pytest.raises(TraceValidationError, match="duplicate meta"):
            validate_jsonl(path)

    def test_blank_line(self, tmp_path):
        path = self.write(tmp_path, ['{"type": "meta", "devices": []}', ""])
        with pytest.raises(TraceValidationError, match="blank line"):
            validate_jsonl(path)

    def test_unknown_record_type(self, tmp_path):
        path = self.write(
            tmp_path,
            ['{"type": "meta", "devices": []}', '{"type": "bogus"}'],
        )
        with pytest.raises(TraceValidationError, match="unknown record type"):
            validate_jsonl(path)

    def test_missing_required_keys(self, tmp_path):
        path = self.write(
            tmp_path,
            ['{"type": "meta", "devices": []}', '{"type": "interval"}'],
        )
        with pytest.raises(TraceValidationError, match="missing"):
            validate_jsonl(path)

    def test_inverted_interval(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                '{"type": "meta", "devices": []}',
                '{"type": "interval", "device": "d", "kind": "k", '
                '"start_s": 5.0, "end_s": 1.0}',
            ],
        )
        with pytest.raises(TraceValidationError, match="ends before"):
            validate_jsonl(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceValidationError, match="empty trace file"):
            validate_jsonl(str(path))

    def test_chrome_missing_trace_events(self, tmp_path):
        path = tmp_path / "bad.trace.json"
        path.write_text("{}")
        with pytest.raises(TraceValidationError, match="traceEvents"):
            validate_chrome_trace(str(path))

    def test_chrome_bad_phase(self, tmp_path):
        path = tmp_path / "bad.trace.json"
        path.write_text(
            json.dumps({"traceEvents": [{"ph": "B", "pid": 1, "name": "x"}]})
        )
        with pytest.raises(TraceValidationError, match="unsupported phase"):
            validate_chrome_trace(str(path))

    def test_chrome_negative_duration(self, tmp_path):
        path = tmp_path / "bad.trace.json"
        path.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {"ph": "X", "pid": 1, "name": "x", "ts": 0, "dur": -1}
                    ]
                }
            )
        )
        with pytest.raises(TraceValidationError, match="ts/dur"):
            validate_chrome_trace(str(path))

    @pytest.mark.parametrize(
        "event,message",
        [
            ({"ph": "X", "ts": float("nan"), "dur": 1}, "ts/dur"),
            ({"ph": "C", "ts": -5, "args": {"value": 1}}, "C event needs a finite ts"),
            ({"ph": "C", "args": {"value": 1}}, "C event needs a finite ts"),
            ({"ph": "C", "ts": float("nan"), "args": {"value": 1}}, "C event needs a finite ts"),
        ],
    )
    def test_chrome_timestamps_must_be_finite(self, tmp_path, event, message):
        path = tmp_path / "bad.trace.json"
        path.write_text(json.dumps({"traceEvents": [{"pid": 1, "name": "q", **event}]}))
        with pytest.raises(TraceValidationError, match=message):
            validate_chrome_trace(str(path))

    @pytest.mark.parametrize(
        "record",
        [
            '{"type": "interval", "device": "d", "kind": "k", "start_s": NaN, "end_s": 1.0}',
            '{"type": "interval", "device": "d", "kind": "k", "start_s": 0.0, "end_s": Infinity}',
            '{"type": "interval", "device": "d", "kind": "k", "start_s": -1.0, "end_s": 1.0}',
            '{"type": "span", "name": "s", "cat": "c", "start_s": NaN, "end_s": NaN}',
            '{"type": "span", "name": "s", "cat": "c", "start_s": "0", "end_s": 1.0}',
            '{"type": "sample", "series": "q", "time_s": NaN, "value": 1.0}',
            '{"type": "sample", "series": "q", "time_s": -2.0, "value": 1.0}',
        ],
    )
    def test_jsonl_timestamps_must_be_finite(self, tmp_path, record):
        path = self.write(tmp_path, ['{"type": "meta", "devices": []}', record])
        with pytest.raises(TraceValidationError, match="finite number >= 0"):
            validate_jsonl(path)


class TestDirectoryValidation:
    def test_walks_both_formats(self, observer, tmp_path):
        write_jsonl(observer, str(tmp_path / "a.jsonl"))
        write_chrome_trace(observer, str(tmp_path / "a.trace.json"))
        (tmp_path / "summary.json").write_text("{}")  # ignored: not a trace
        counts = validate_directory(str(tmp_path))
        assert len(counts) == 2

    def test_no_traces_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no trace files"):
            validate_directory(str(tmp_path))

    def test_cli_exit_codes(self, observer, tmp_path, capsys):
        assert main([]) == 2
        assert main([str(tmp_path / "nowhere")]) == 1
        write_jsonl(observer, str(tmp_path / "a.jsonl"))
        assert main([str(tmp_path)]) == 0
        assert "records OK" in capsys.readouterr().out
