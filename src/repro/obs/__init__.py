"""Device-utilization observability for simulated tertiary joins.

The paper's concurrency claims are utilization claims: Figure 4 shows
interleaved disk buffering holding occupancy near 100 %, and the CDT/CTT
methods win because tape drives and the disk array stay busy at the same
time.  This package records the evidence — per-device busy intervals,
queue-depth and buffer-occupancy series, counters and per-phase spans —
for every join method, then derives utilization/overlap metrics from
them.

* :class:`~repro.obs.recorder.JoinObserver` — the one recorder that
  devices, buffers and phases report into, switched on by
  ``JoinSpec.trace_devices`` (purely observational: no simulated events
  are created, so traced and untraced runs are time-identical);
* :mod:`repro.obs.metrics` — derived metrics: ``device_utilization``,
  tape-drive ``overlap_fraction``, ``disk_balance``, and the Figure-4
  buffer-utilization curve computed from the generic layer;
* :mod:`repro.obs.export` — JSONL and Chrome-trace/Perfetto exporters;
* :mod:`repro.obs.validate` — schema validation for exported trace files
  (also a CLI: ``python -m repro.obs.validate DIR``).
"""

from repro.obs.metrics import (
    buffer_utilization,
    device_utilization,
    disk_balance,
    overlap_fraction,
    summarize,
)
from repro.obs.recorder import JoinObserver

__all__ = [
    "JoinObserver",
    "buffer_utilization",
    "device_utilization",
    "disk_balance",
    "overlap_fraction",
    "summarize",
]
