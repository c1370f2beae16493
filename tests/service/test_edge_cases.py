"""Service edge cases: empty workloads.

These guard the broker/scheduler against divide-by-zero on an empty
batch.
"""

from repro.service import JoinService


class TestZeroJobWorkload:
    def test_empty_queue_yields_an_empty_report(self):
        report = JoinService().run("fifo")
        assert report.outcomes == ()
        assert report.makespan_s == 0.0
        assert report.mean_latency_s == 0.0
        assert report.p95_latency_s == 0.0
        assert report.deadline_misses == 0
        assert report.exchanges == 0

    def test_empty_report_serializes(self):
        payload = JoinService().run("sjf").to_dict()
        assert payload["outcomes"] == []
        assert payload["device_utilization"] == {}

    def test_empty_report_renders(self):
        assert "makespan 0 s" in JoinService().run("fifo").render()
