#!/usr/bin/env python
"""Night-batch scenario: a queue of joins against an automated tape library.

An archive holds one dimension tape and several monthly fact tapes.  The
operator submits the whole backlog to the multi-join scheduler service
(:mod:`repro.service`) and runs it overnight in submission (FIFO) order
on a two-drive library: the robot exchanges media (~30 s each, the
Section 3.2 accounting), the planner picks a method for each month's
sizes, and the service overlaps one month's disk-resident Step II with
the next month's tape read.

Run with::

    python examples/tape_library_batch.py
"""

from repro import api
from repro.experiments.report import format_table

#: The monthly fact tapes in the backlog, as (month, fact MB).
MONTHS = (("jan", 900.0), ("feb", 1200.0), ("mar", 700.0), ("apr", 1600.0))

#: The shared dimension tape every month joins against, in MB.
DIMENSION_MB = 80.0


def night_batch_report(policy: str = "fifo") -> api.WorkloadReport:
    """Run the backlog through the service under ``policy``."""
    requests = [
        api.JoinRequest(
            name=month,
            r_mb=DIMENSION_MB,
            s_mb=fact_mb,
            r_volume="dimension",
            s_volume=f"facts-{month}",
        )
        for month, fact_mb in MONTHS
    ]
    config = api.ServiceConfig(memory_mb=16.0, disk_mb=160.0)
    return api.run_service(requests, config=config, policy=policy)


def main() -> None:
    report = night_batch_report()

    rows = []
    for outcome in report.outcomes:
        rows.append([
            outcome.name,
            f"{dict(MONTHS)[outcome.name]:g}",
            outcome.symbol or "-",
            f"{outcome.latency_s / 3600:.2f} h",
        ])
    print(format_table(["month", "fact (MB)", "method", "latency"], rows))

    exchange_s = 30.0 * report.exchanges
    print(f"\nmedia exchanges:      {report.exchanges:6d} "
          f"({exchange_s:.0f} s of robot time, "
          f"{100 * exchange_s / report.makespan_s:.1f} % of the batch)")
    for device, utilization in sorted(report.drive_utilization.items()):
        print(f"{device} utilization:    {100 * utilization:5.1f} %")
    print(f"night batch makespan: {report.makespan_s:.0f} s "
          f"({report.makespan_s / 3600:.2f} h)")


if __name__ == "__main__":
    main()
