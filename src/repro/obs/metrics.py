"""Derived utilization metrics over one join's observed trace.

Everything here is pure arithmetic on recorded intervals and series —
no simulator access — so the same functions serve live runs, sweep
workers and post-hoc analysis of exported traces.

Metric definitions:

``device_utilization``
    Busy time over window length, per device, with overlapping
    operations merged (never exceeds 1.0).

``overlap_fraction``
    |busy(A) ∩ busy(B)| / min(|busy(A)|, |busy(B)|) over a window — the
    fraction of the *less busy* device's activity that runs concurrently
    with the other.  1.0 means the lighter device works entirely under
    the heavier one's activity; 0.0 means strictly serialized.  This is
    the paper's concurrency claim in number form: CTT methods keep both
    tape drives overlapped, CDT methods keep the disk array overlapped
    with the streaming tape.

``disk_balance``
    min/max busy time across the disks of the array; 1.0 is a perfectly
    balanced stripe.

``buffer_utilization``
    The Figure-4 curve: interleaved buffer occupancy as a percentage of
    capacity over the Step II window, split into even/odd iteration
    shares, plus its time-averaged mean.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import JoinObserver

Window = tuple[float, float]


def _merged(intervals: typing.Iterable[tuple[float, float]], window: Window) -> list[tuple[float, float]]:
    """Clip intervals to ``window`` and merge overlaps."""
    lo_w, hi_w = window
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, lo_w), min(hi, hi_w)
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _total(intervals: list[tuple[float, float]]) -> float:
    return sum(hi - lo for lo, hi in intervals)


def _intersection_s(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> float:
    """Total length of the intersection of two merged interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _busy_by_device(observer: "JoinObserver") -> dict[str, list[tuple[float, float]]]:
    """Each device's (start, end) busy intervals from the observer's log,
    devices in sorted order."""
    busy: dict[str, list[tuple[float, float]]] = {}
    for interval in observer.intervals:
        busy.setdefault(interval.device, []).append((interval.start_s, interval.end_s))
    return dict(sorted(busy.items()))


def device_busy_s(observer: "JoinObserver", window: Window) -> dict[str, float]:
    """Merged busy seconds of each observed device over ``window``."""
    return {
        device: _total(_merged(intervals, window))
        for device, intervals in _busy_by_device(observer).items()
    }


def device_utilization(observer: "JoinObserver", window: Window) -> dict[str, float]:
    """Busy fraction of each observed device over ``window``."""
    lo, hi = window
    if hi <= lo:
        raise ValueError(f"empty utilization window [{lo}, {hi}]")
    return {
        device: busy_s / (hi - lo)
        for device, busy_s in device_busy_s(observer, window).items()
    }


def overlap_fraction(
    observer: "JoinObserver",
    devices_a: typing.Sequence[str],
    devices_b: typing.Sequence[str],
    window: Window,
) -> float:
    """Concurrency of two device groups: |A ∩ B| / min(|A|, |B|).

    Each group's busy time is the union over its devices.  Returns 0.0
    when either group is idle in the window (no concurrency to measure).
    """
    busy = _busy_by_device(observer)
    a = _merged((span for d in devices_a for span in busy.get(d, ())), window)
    b = _merged((span for d in devices_b for span in busy.get(d, ())), window)
    denominator = min(_total(a), _total(b))
    if denominator <= 0.0:
        return 0.0
    return _intersection_s(a, b) / denominator


def disk_balance(observer: "JoinObserver", window: Window) -> float:
    """min/max busy time across the array's disks (1.0 = balanced).

    Returns 1.0 for a single-disk array and 0.0 when any disk was
    entirely idle while another worked.
    """
    busy = [
        busy_s
        for device, busy_s in device_busy_s(observer, window).items()
        if device.startswith("disk")
    ]
    if not busy:
        return 1.0
    top = max(busy)
    if top <= 0.0:
        return 1.0
    return min(busy) / top


def buffer_utilization(
    observer: "JoinObserver", name: str, capacity_blocks: float, window: Window
) -> dict:
    """The Figure-4 curve from a traced interleaved buffer.

    Derives occupancy (total plus even/odd iteration shares) as a
    percentage of ``capacity_blocks`` over ``window``, and its
    time-averaged mean — the exact series the paper plots.
    """
    total = observer.series[f"{name}.total"]
    even = observer.series[f"{name}.even"]
    odd = observer.series[f"{name}.odd"]
    times, total_pct, even_pct, odd_pct = [], [], [], []
    for t, value in zip(total.times, total.values):
        if not window[0] <= t <= window[1]:
            continue
        times.append(t)
        total_pct.append(100.0 * value / capacity_blocks)
        even_pct.append(100.0 * even.value_at(t) / capacity_blocks)
        odd_pct.append(100.0 * odd.value_at(t) / capacity_blocks)
    mean_pct = 100.0 * total.time_average(window[0], window[1]) / capacity_blocks
    return {
        "times_s": times,
        "total_pct": total_pct,
        "even_pct": even_pct,
        "odd_pct": odd_pct,
        "step2_window_s": list(window),
        "mean_total_pct": mean_pct,
    }


def summarize(
    observer: "JoinObserver", response_s: float, step1_s: float, start_s: float = 0.0
) -> dict:
    """Compact, JSON-serializable metrics summary for one join.

    This is what rides on ``JoinStats.obs_summary`` — derived numbers
    only, never the raw trace, so artifacts stay small and sweep results
    stay cacheable.  Both times count from the join's start, ``start_s``.
    """
    run: Window = (start_s, start_s + response_s)
    step2: Window = (start_s + step1_s, run[1])
    devices = observer.devices()
    tapes = [d for d in devices if d.startswith("tape")]
    disks = [d for d in devices if d.startswith("disk")]
    summary = {
        "window_s": list(run),
        "device_utilization": device_utilization(observer, run)
        if response_s > 0.0
        else {},
        "device_busy_s": device_busy_s(observer, run),
        "disk_balance": disk_balance(observer, run),
        "tape_overlap_fraction": overlap_fraction(
            observer, tapes[:1], tapes[1:], run
        )
        if len(tapes) >= 2
        else 0.0,
        "tape_disk_overlap_fraction": overlap_fraction(observer, tapes, disks, run),
        "counters": dict(sorted(observer.counters.items())),
        "spans": {
            "n_units": len(observer.spans_in("unit")),
            "n_unit_retries": len(observer.spans_in("unit-retry")),
            "n_fault_retries": len(observer.spans_in("fault-retry")),
        },
    }
    if response_s > step1_s:
        summary["step2_tape_overlap_fraction"] = (
            overlap_fraction(observer, tapes[:1], tapes[1:], step2)
            if len(tapes) >= 2
            else 0.0
        )
        summary["step2_tape_disk_overlap_fraction"] = overlap_fraction(
            observer, tapes, disks, step2
        )
    queue_max = {}
    for name, series in sorted(observer.series.items()):
        if name.startswith("queue.") and len(series):
            queue_max[name.removeprefix("queue.")] = series.max()
    summary["queue_depth_max"] = queue_max
    return summary
