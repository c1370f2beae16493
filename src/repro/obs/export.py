"""Trace exporters: JSONL for analysis, Chrome/Perfetto JSON for viewing.

JSONL schema — one JSON object per line, discriminated by ``type``:

* ``meta``     — first line: run identity (method, symbol, timings) and
  the device list;
* ``interval`` — one device operation: ``device``, ``kind``,
  ``start_s``, ``end_s``;
* ``span``     — one phase span: ``name``, ``cat``, ``start_s``,
  ``end_s``;
* ``sample``   — one time-series point: ``series``, ``time_s``,
  ``value``;
* ``counter``  — one final counter value: ``name``, ``value``.

The Chrome trace is the standard ``traceEvents`` JSON (load it at
``chrome://tracing`` or https://ui.perfetto.dev): each device is a named
thread carrying complete (``ph: "X"``) events per operation, phases ride
their own thread, and time series become counter (``ph: "C"``) tracks.
Timestamps are simulated seconds scaled to microseconds.
"""

from __future__ import annotations

import json
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import JoinObserver

#: Simulated seconds -> Chrome trace microseconds.
_US = 1e6


def write_jsonl(observer: "JoinObserver", path: str, meta: dict | None = None) -> None:
    """Write one join's trace as JSON Lines."""
    header = {"type": "meta", "devices": observer.devices()}
    if meta:
        header.update(meta)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for interval in observer.intervals:
            handle.write(
                json.dumps(
                    {
                        "type": "interval",
                        "device": interval.device,
                        "kind": interval.kind,
                        "start_s": interval.start_s,
                        "end_s": interval.end_s,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        for span in observer.spans:
            handle.write(
                json.dumps(
                    {
                        "type": "span",
                        "name": span.name,
                        "cat": span.cat,
                        "start_s": span.start_s,
                        "end_s": span.end_s,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        for name, series in sorted(observer.series.items()):
            for time_s, value in zip(series.times, series.values):
                handle.write(
                    json.dumps(
                        {
                            "type": "sample",
                            "series": name,
                            "time_s": time_s,
                            "value": value,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        for name, value in sorted(observer.counters.items()):
            handle.write(
                json.dumps(
                    {"type": "counter", "name": name, "value": value},
                    sort_keys=True,
                )
                + "\n"
            )


def chrome_trace_events(observer: "JoinObserver", meta: dict | None = None) -> list[dict]:
    """The ``traceEvents`` list for one join's trace."""
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": (meta or {}).get("symbol", "join")},
        },
        {
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "name": "thread_name",
            "args": {"name": "phases"},
        },
    ]
    tids = {device: index + 2 for index, device in enumerate(observer.devices())}
    for device, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": device},
            }
        )
    for span in observer.spans:
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "name": span.name,
                "cat": span.cat,
                "ts": span.start_s * _US,
                "dur": (span.end_s - span.start_s) * _US,
            }
        )
    for interval in observer.intervals:
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tids[interval.device],
                "name": interval.kind,
                "cat": "device",
                "ts": interval.start_s * _US,
                "dur": (interval.end_s - interval.start_s) * _US,
            }
        )
    for name, series in sorted(observer.series.items()):
        for time_s, value in zip(series.times, series.values):
            events.append(
                {
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "name": name,
                    "ts": time_s * _US,
                    "args": {"value": value},
                }
            )
    return events


def write_chrome_trace(
    observer: "JoinObserver", path: str, meta: dict | None = None
) -> None:
    """Write one join's trace in the Chrome trace-event JSON format."""
    document = {
        "traceEvents": chrome_trace_events(observer, meta),
        "displayTimeUnit": "ms",
    }
    if meta:
        document["otherData"] = dict(meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
