"""Runner semantics: cache short-circuit, dedup, ordering, progress."""

import repro.sweep.runner as runner_mod
from repro.sweep import task_fingerprint
from repro.sweep.cache import SweepCache
from repro.sweep.runner import SweepRunner
from repro.sweep.tasks import SweepTask


def tracking_execute(calls):
    def execute(kind, payload):
        calls.append(payload["n"])
        return {"kind": kind, "n": payload["n"]}

    return execute


def tasks_for(ns):
    return [SweepTask("stub", {"n": n}) for n in ns]


class TestSweepRunner:
    def test_results_in_input_order(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute(calls))
        results = SweepRunner().run(tasks_for([3, 1, 2]))
        assert [r["n"] for r in results] == [3, 1, 2]
        assert calls == [3, 1, 2]

    def test_cached_tasks_are_not_executed(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute(calls))
        cache = SweepCache(tmp_path / "cache")
        tasks = tasks_for([1, 2])
        fp = task_fingerprint("stub", {"n": 1})
        cache.store(fp, "stub", {"n": 1}, {"kind": "stub", "n": 1, "cached": True})
        results = SweepRunner(cache=cache).run(tasks)
        assert calls == [2]  # only the miss ran
        assert results[0]["cached"] is True
        assert results[1] == {"kind": "stub", "n": 2}

    def test_misses_are_stored_for_next_run(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute(calls))
        cache = SweepCache(tmp_path / "cache")
        tasks = tasks_for([5])
        SweepRunner(cache=cache).run(tasks)
        SweepRunner(cache=cache).run(tasks)
        assert calls == [5]  # second run fully served from cache
        assert cache.stores == 1

    def test_duplicate_tasks_execute_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute(calls))
        results = SweepRunner().run(tasks_for([7, 7, 7]))
        assert calls == [7]
        assert [r["n"] for r in results] == [7, 7, 7]

    def test_single_pending_task_runs_inline_even_with_jobs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute(calls))
        results = SweepRunner(jobs=4).run(tasks_for([9]))
        assert calls == [9]
        assert results[0]["n"] == 9

    def test_progress_reports_every_completion(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute([]))
        seen = []
        runner = SweepRunner(progress=lambda done, total, note: seen.append((done, total)))
        runner.run(tasks_for([1, 2]))
        assert seen[0] == (0, 2)  # nothing cached
        assert seen[-1] == (2, 2)

    def test_custom_salt_changes_cache_identity(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute(calls))
        cache = SweepCache(tmp_path / "cache")
        tasks = tasks_for([1])
        SweepRunner(cache=cache, salt="code-a").run(tasks)
        SweepRunner(cache=cache, salt="code-b").run(tasks)
        assert calls == [1, 1]  # salt bump invalidated the first entry


class TestProfiling:
    def test_inline_tasks_are_timed(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute([]))
        runner = SweepRunner()
        runner.run(tasks_for([1, 2]))
        assert [t["source"] for t in runner.timings] == ["inline", "inline"]
        assert all(t["queue_s"] == 0.0 for t in runner.timings)
        assert all(t["run_s"] >= 0.0 for t in runner.timings)
        profile = runner.profile()
        assert profile["executed"] == 2
        assert profile["cached"] == 0
        assert profile["wall_s"] > 0.0
        assert profile["idle_s"] == 0.0  # no pool, no idle workers
        assert profile["by_kind"] == {"stub": {"tasks": 2, "run_s": profile["run_s"]}}

    def test_cache_hits_are_profiled_not_timed(self, monkeypatch, tmp_path):
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute([]))
        cache = SweepCache(tmp_path / "cache")
        tasks = tasks_for([1, 2])
        SweepRunner(cache=cache).run(tasks)
        runner = SweepRunner(cache=cache)
        runner.run(tasks)
        profile = runner.profile()
        assert profile["executed"] == 0
        assert profile["cached"] == 2
        assert runner.timings == []
        assert profile["cache_load_s"] >= 0.0

    def test_cache_stores_are_timed(self, monkeypatch, tmp_path):
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute([]))
        runner = SweepRunner(cache=SweepCache(tmp_path / "cache"))
        runner.run(tasks_for([1]))
        assert runner.profile()["cache_store_s"] > 0.0

    def test_pooled_tasks_split_queue_and_run_time(self):
        # Real selftest tasks: worker-side timing must survive the trip
        # through the process pool via the result envelope.
        tasks = [
            runner_mod.SweepTask("selftest", {"mode": "ok", "n": n})
            for n in range(3)
        ]
        runner = SweepRunner(jobs=2)
        results = runner.run(tasks)
        assert [r["n"] for r in results] == [0, 1, 2]
        assert len(runner.timings) == 3
        assert all(t["source"] == "pool" for t in runner.timings)
        assert all(t["queue_s"] >= 0.0 for t in runner.timings)
        profile = runner.profile()
        assert profile["executed"] == 3
        assert profile["by_kind"]["selftest"]["tasks"] == 3
        # A pooled task's wall time is at least its pure run time.
        assert profile["wall_s"] > 0.0
        # Two workers held the pool: their busy and idle seconds together
        # are twice the pool's wall time, which is within the run's.
        assert profile["idle_s"] > 0.0
        assert profile["idle_s"] + profile["run_s"] <= 2 * profile["wall_s"] + 1e-6

    def test_join_timings_carry_their_method(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute([]))
        tasks = [
            SweepTask("join", {"symbol": symbol, "n": n})
            for n, symbol in enumerate(["CDT-GH", "DT-NB", "CDT-GH"])
        ]
        tasks.append(SweepTask("stub", {"symbol": "not a join", "n": 3}))
        runner = SweepRunner()
        runner.run(tasks)
        assert [t["symbol"] for t in runner.timings] == ["CDT-GH", "DT-NB", "CDT-GH", None]
        profile = runner.profile()
        assert sorted(profile["by_method"]) == ["CDT-GH", "DT-NB"]
        assert profile["by_method"]["CDT-GH"]["tasks"] == 2
        assert profile["by_method"]["CDT-GH"]["run_s"] == sum(
            t["run_s"] for t in runner.timings if t["symbol"] == "CDT-GH"
        )
        assert profile["by_kind"]["join"]["tasks"] == 3
        assert profile["by_kind"]["stub"]["tasks"] == 1

    def test_pooled_join_timings_carry_their_method(self):
        tasks = [
            runner_mod.SweepTask("selftest", {"mode": "ok", "n": n, "symbol": "X"})
            for n in range(2)
        ]
        runner = SweepRunner(jobs=2)
        runner.run(tasks)
        assert [t["symbol"] for t in runner.timings] == [None, None]
        assert runner.profile()["by_method"] == {}

    def test_timings_accumulate_across_runs(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_task", tracking_execute([]))
        runner = SweepRunner()
        runner.run(tasks_for([1]))
        first_wall = runner.profile()["wall_s"]
        runner.run(tasks_for([2]))
        profile = runner.profile()
        assert profile["executed"] == 2
        assert profile["wall_s"] > first_wall
