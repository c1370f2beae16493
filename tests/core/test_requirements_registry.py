"""Table 2 metadata, the registry, and the environment."""

import pytest

from repro.core.environment import JoinEnvironment
from repro.core.registry import ALL_METHODS, method_by_symbol, table2_rows
from repro.core.requirements import ResourceRequirements
from repro.core.spec import JoinSpec


class TestTable2:
    def test_seven_rows_in_paper_order(self):
        assert [row["symbol"] for row in table2_rows()] == [
            "DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH", "CTT-GH", "TT-GH",
        ]

    def test_symbolic_resources(self):
        by_symbol = {row["symbol"]: row for row in table2_rows()}
        assert by_symbol["TT-GH"]["disk"] == "any"
        assert by_symbol["CTT-GH"]["tape_r"] == "|R|"
        assert by_symbol["TT-GH"]["tape_r"] == "|S|"
        assert by_symbol["CDT-NB/MB"]["memory"] == "2|Si|"
        assert by_symbol["DT-GH"]["memory"] == "sqrt(|R|)"

    def test_rows_render_as_dicts(self):
        rows = table2_rows()
        assert len(rows) == 7
        assert all({"symbol", "name", "memory", "disk"} <= set(row) for row in rows)


class TestResourceRequirements:
    def test_fits(self):
        req = ResourceRequirements(10.0, 20.0, 5.0, 0.0)
        assert req.fits(10.0, 20.0, 5.0, 0.0)
        assert req.fits(11.0, 25.0, 9.0, 1.0)
        assert not req.fits(9.0, 20.0, 5.0, 0.0)
        assert not req.fits(10.0, 19.0, 5.0, 0.0)
        assert not req.fits(10.0, 20.0, 4.0, 0.0)


class TestRegistry:
    def test_lookup_by_symbol(self):
        method = method_by_symbol("CDT-GH")
        assert method.symbol == "CDT-GH"

    def test_unknown_symbol(self):
        with pytest.raises(KeyError, match="known"):
            method_by_symbol("NOPE")

    def test_method_metadata(self):
        concurrency = {m.symbol: m.concurrent for m in ALL_METHODS}
        assert concurrency == {
            "DT-NB": False, "CDT-NB/MB": True, "CDT-NB/DB": True,
            "DT-GH": False, "CDT-GH": True, "CTT-GH": True, "TT-GH": False,
        }

    def test_tape_step2_and_cacheable_step1_flags(self):
        """The service holds both drives for the tape–tape methods, the
        partition cache keeps the disk–tape Grace-Hash Step I, and the
        cost model charges S's trip through disk where the method makes
        one."""
        assert {m.symbol for m in ALL_METHODS if m.tape_step2} == {"CTT-GH", "TT-GH"}
        assert {m.symbol for m in ALL_METHODS if m.cacheable_step1} == {
            "DT-GH", "CDT-GH",
        }
        assert {m.symbol for m in ALL_METHODS if m.stages_s_on_disk} == {
            "CDT-NB/DB", "DT-GH", "CDT-GH", "CTT-GH",
        }
        assert all(m.name for m in ALL_METHODS)


class TestJoinEnvironment:
    def test_setup_places_relations(self, small_r, small_s):
        spec = JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=100.0)
        env = JoinEnvironment(spec)
        assert env.file_r.n_tuples == small_r.n_tuples
        assert env.file_s.n_tuples == small_s.n_tuples
        assert env.drive_r.volume.name == "vol_r"
        assert env.drive_s.volume.name == "vol_s"

    def test_counters_and_finalize(self, small_r, small_s):
        spec = JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=100.0)
        env = JoinEnvironment(spec)
        env.count_iteration()
        env.count_iteration()
        env.count_r_scan(0.5)
        env.mark_step1_done()
        stats = env.finalize("Test", "T")
        assert stats.iterations == 2
        assert stats.r_scans == 0.5
        assert stats.method == "Test"
        assert stats.response_s == 0.0

    def test_disk_budget_split_across_disks(self, small_r, small_s):
        spec = JoinSpec(
            small_r, small_s, memory_blocks=10.0, disk_blocks=100.0, n_disks=4
        )
        env = JoinEnvironment(spec)
        per_disk = [d.capacity_blocks for d in env.array.disks]
        assert len(per_disk) == 4
        assert sum(per_disk) == pytest.approx(100.0, abs=0.5)
