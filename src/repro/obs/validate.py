"""Schema validation for exported trace files.

Used by the CI trace-smoke job (and usable by hand)::

    python -m repro.obs.validate TRACE_DIR

Walks ``TRACE_DIR``, validates every ``*.jsonl`` file against the JSONL
record schema of :mod:`repro.obs.export` and every ``*.trace.json`` file
against the Chrome trace-event format, and exits non-zero on the first
malformed file.  Validation is structural (required keys, types, finite
non-negative timestamps, intervals that end after they start) — no
third-party schema library is needed.
"""

from __future__ import annotations

import json
import math
import os
import sys
import typing

_REQUIRED_KEYS = {
    "meta": ("devices",),
    "interval": ("device", "kind", "start_s", "end_s"),
    "span": ("name", "cat", "start_s", "end_s"),
    "sample": ("series", "time_s", "value"),
    "counter": ("name", "value"),
}


class TraceValidationError(ValueError):
    """An exported trace file does not match the documented schema."""


def _fail(path: str, message: str) -> typing.NoReturn:
    raise TraceValidationError(f"{path}: {message}")


def _is_time(value: object) -> bool:
    """A finite, non-negative number (JSON ``NaN``/``Infinity`` are not)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value >= 0
    )


def _check_times(path: str, where: str, record: dict, keys: tuple[str, ...]) -> None:
    for key in keys:
        if not _is_time(record.get(key)):
            _fail(path, f"{where}: {key} must be a finite number >= 0")


def _check_interval(path: str, line_no: int, record: dict) -> None:
    _check_times(path, f"line {line_no}", record, ("start_s", "end_s"))
    if record["end_s"] < record["start_s"]:
        _fail(path, f"line {line_no}: interval ends before it starts")


def validate_jsonl(path: str) -> int:
    """Validate one JSONL trace file; returns the number of records."""
    n_records = 0
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                _fail(path, f"line {line_no}: blank line")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                _fail(path, f"line {line_no}: not valid JSON ({exc})")
            if not isinstance(record, dict):
                _fail(path, f"line {line_no}: record is not an object")
            kind = record.get("type")
            if kind not in _REQUIRED_KEYS:
                _fail(path, f"line {line_no}: unknown record type {kind!r}")
            if line_no == 1 and kind != "meta":
                _fail(path, "first record must be the meta header")
            if line_no > 1 and kind == "meta":
                _fail(path, f"line {line_no}: duplicate meta header")
            missing = [key for key in _REQUIRED_KEYS[kind] if key not in record]
            if missing:
                _fail(path, f"line {line_no}: {kind} record missing {missing}")
            if kind in ("interval", "span"):
                _check_interval(path, line_no, record)
            if kind == "sample":
                _check_times(path, f"line {line_no}", record, ("time_s",))
            n_records += 1
    if n_records == 0:
        _fail(path, "empty trace file")
    return n_records


def validate_chrome_trace(path: str) -> int:
    """Validate one Chrome trace JSON file; returns the event count."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            _fail(path, f"not valid JSON ({exc})")
    if not isinstance(document, dict) or "traceEvents" not in document:
        _fail(path, "missing top-level traceEvents list")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        _fail(path, "traceEvents must be a non-empty list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            _fail(path, f"event {index}: not an object")
        phase = event.get("ph")
        if phase not in ("X", "C", "M"):
            _fail(path, f"event {index}: unsupported phase {phase!r}")
        if "pid" not in event or "name" not in event:
            _fail(path, f"event {index}: missing pid/name")
        if phase == "X" and not (_is_time(event.get("ts")) and _is_time(event.get("dur"))):
            _fail(path, f"event {index}: X event needs finite ts/dur >= 0")
        if phase == "C":
            if not _is_time(event.get("ts")):
                _fail(path, f"event {index}: C event needs a finite ts >= 0")
            if "args" not in event:
                _fail(path, f"event {index}: C event needs args")
    return len(events)


def validate_directory(root: str) -> dict[str, int]:
    """Validate every trace file under ``root``.

    Returns ``{path: record-or-event count}``; raises
    :class:`TraceValidationError` on the first malformed file and
    :class:`FileNotFoundError` when no trace files exist at all.
    """
    counts: dict[str, int] = {}
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            if filename.endswith(".jsonl"):
                counts[path] = validate_jsonl(path)
            elif filename.endswith(".trace.json"):
                counts[path] = validate_chrome_trace(path)
    if not counts:
        raise FileNotFoundError(f"no trace files (*.jsonl, *.trace.json) under {root}")
    return counts


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: validate one trace directory, print a report."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.validate TRACE_DIR", file=sys.stderr)
        return 2
    try:
        counts = validate_directory(argv[0])
    except (TraceValidationError, FileNotFoundError) as exc:
        print(f"trace validation failed: {exc}", file=sys.stderr)
        return 1
    for path, count in sorted(counts.items()):
        print(f"{path}: {count} records OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
