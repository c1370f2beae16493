"""The one recording surface devices, buffers and join phases report into.

A :class:`JoinObserver` holds everything a traced run records: one
ordered log of device busy intervals (with operation kinds), named
:class:`TimeSeries` (queue depths, buffer and memory occupancy — the
Figure 4 curve), named counters, and named spans for the join's phases
(Step I/II, per-bucket units, fault retries).  The export and metrics
layers read only this object.

The observer is purely observational.  Recording never creates simulator
events, acquires resources or advances time, so a traced run produces
exactly the same event schedule — and therefore the same statistics — as
an untraced one.
"""

from __future__ import annotations

import bisect
import dataclasses


class TimeSeries:
    """A piecewise-constant metric sampled at (time, value) points."""

    def __init__(self, name: str):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def record(self, time: float, value: float) -> None:
        """Append a sample; time must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time went backwards in series {self.name!r}: "
                f"{time} < {self.times[-1]}"
            )
        if self.times and time == self.times[-1]:
            self.values[-1] = value
            return
        self.times.append(time)
        self.values.append(value)

    def value_at(self, time: float) -> float:
        """Value in effect at ``time`` (last sample at or before it)."""
        if not self.times:
            raise ValueError(f"series {self.name!r} is empty")
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            raise ValueError(f"time {time} precedes first sample in {self.name!r}")
        return self.values[idx]

    def max(self) -> float:
        """Largest sampled value."""
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return max(self.values)

    def _value_from(self, time: float) -> float:
        """Value in effect at ``time``, carrying the first sample backward.

        Unlike :meth:`value_at`, a time before the first sample yields the
        first sample's value — windowed aggregates tolerate a window edge
        preceding the series without raising.
        """
        if time < self.times[0]:
            return self.values[0]
        return self.value_at(time)

    def time_average(self, start: float | None = None, end: float | None = None) -> float:
        """Time-weighted mean over [start, end] for this step function.

        An inverted window (``end < start``) raises :class:`ValueError`;
        a zero-width window evaluates the step function at that instant.
        A window starting before the first sample carries the first
        sample's value backward.
        """
        if not self.times:
            raise ValueError(f"series {self.name!r} is empty")
        lo = self.times[0] if start is None else start
        hi = self.times[-1] if end is None else end
        if hi < lo:
            raise ValueError(
                f"inverted window on series {self.name!r}: "
                f"end {hi} precedes start {lo}"
            )
        if hi == lo:
            return self._value_from(lo)
        total = 0.0
        prev_t = lo
        prev_v = self._value_from(lo)
        start_idx = bisect.bisect_right(self.times, lo)
        for t, v in zip(self.times[start_idx:], self.values[start_idx:]):
            if t >= hi:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, v
        total += prev_v * (hi - prev_t)
        return total / (hi - lo)


@dataclasses.dataclass(frozen=True)
class Span:
    """One named phase of the join (Step I, a bucket unit, a retry)."""

    name: str
    cat: str
    start_s: float
    end_s: float


@dataclasses.dataclass(frozen=True)
class BusyInterval:
    """One device operation: the device held from start to end."""

    device: str
    kind: str
    start_s: float
    end_s: float


class JoinObserver:
    """Records busy intervals, time series, counters and spans for one run."""

    def __init__(self):
        #: Every device operation, in completion order.
        self.intervals: list[BusyInterval] = []
        #: Every recorded phase span, in completion order.
        self.spans: list[Span] = []
        #: Named time series (queue depths, buffer and memory occupancy).
        self.series: dict[str, TimeSeries] = {}
        #: Named counters (fault retries, cache hits...).
        self.counters: dict[str, float] = {}

    # -- device-side recording -------------------------------------------------

    def device_busy(self, device: str, start_s: float, end_s: float, kind: str) -> None:
        """Record one operation holding ``device`` over [start, end]."""
        if end_s < start_s:
            raise ValueError(f"busy interval on {device!r} ends before it starts")
        self.intervals.append(BusyInterval(device, kind, start_s, end_s))

    def queue_depth(self, device: str, time_s: float, depth: int) -> None:
        """Sample the number of requests waiting on ``device``."""
        self.timeseries(f"queue.{device}").record(time_s, float(depth))

    def timeseries(self, name: str) -> TimeSeries:
        """Get or create the time series called ``name``."""
        if name not in self.series:
            self.series[name] = TimeSeries(name)
        return self.series[name]

    # -- phase-side recording ----------------------------------------------------

    def span(self, name: str, start_s: float, end_s: float, cat: str = "phase") -> None:
        """Record one named phase span (Step I/II, units, retries)."""
        if end_s < start_s:
            raise ValueError(f"span {name!r} ends before it starts")
        self.spans.append(Span(name, cat, start_s, end_s))

    def count(self, name: str, amount: float = 1.0) -> None:
        """Accumulate into a named counter (fault retries, restarts...)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- query side --------------------------------------------------------------

    def devices(self) -> list[str]:
        """Names of every device that reported at least one interval."""
        return sorted({interval.device for interval in self.intervals})

    def spans_in(self, cat: str) -> list[Span]:
        """All spans of one category, in recording order."""
        return [span for span in self.spans if span.cat == cat]
