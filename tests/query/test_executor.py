"""Query execution semantics and verification."""

import numpy as np
import pytest

from repro import api, query
from repro.query.executor import UnsupportedPlanError
from repro.relational.datagen import uniform_relation
from repro.relational.join_core import hash_join
from repro.simulator.engine import Simulator
from repro.storage.tape import TapeDrive


@pytest.fixture(scope="module")
def machine():
    return query.Machine(memory_blocks=10.0, disk_blocks=130.0)


@pytest.fixture(scope="module")
def r():
    return uniform_relation("R", 5.0, tuple_bytes=4096, seed=11)


@pytest.fixture(scope="module")
def s(r):
    return uniform_relation("S", 20.0, tuple_bytes=4096, seed=12,
                            key_space=4 * r.n_tuples)


class TestScanPipelines:
    def test_count_over_scan(self, machine, r):
        result = query.execute(query.Aggregate(query.TapeScan(r), "count"), machine)
        assert result.value == r.n_tuples
        assert result.join_method is None
        assert result.simulated_s > 0

    def test_filters_apply_in_stream_for_free(self, machine, r):
        plain = query.execute(query.Aggregate(query.TapeScan(r), "count"), machine)
        filtered = query.execute(
            query.Aggregate(
                query.Filter(query.TapeScan(r), query.KeyModulo(2, 0)), "count"
            ),
            machine,
        )
        assert filtered.value == int((r.keys % 2 == 0).sum())
        assert filtered.simulated_s == pytest.approx(plain.simulated_s)

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("count_distinct", lambda keys: len(np.unique(keys))),
            ("sum", lambda keys: int(keys.sum())),
            ("min", lambda keys: int(keys.min())),
            ("max", lambda keys: int(keys.max())),
        ],
    )
    def test_aggregate_kinds(self, machine, r, kind, expected):
        result = query.execute(query.Aggregate(query.TapeScan(r), kind), machine)
        assert result.value == expected(r.keys)

    def test_stacked_filters_compose(self, machine, r):
        plan = query.Aggregate(
            query.Filter(
                query.Filter(query.TapeScan(r), query.KeyModulo(2, 0)),
                query.KeyRange(0, 1000),
            ),
            "count",
        )
        result = query.execute(plan, machine)
        expected = int(((r.keys % 2 == 0) & (r.keys < 1000) & (r.keys >= 0)).sum())
        assert result.value == expected

    def test_scan_time_tracks_relation_size(self, machine, r, s):
        small = query.execute(query.Aggregate(query.TapeScan(r), "count"), machine)
        large = query.execute(query.Aggregate(query.TapeScan(s), "count"), machine)
        assert large.simulated_s == pytest.approx(
            small.simulated_s * s.n_blocks / r.n_blocks, rel=0.01
        )


class TestJoinQueries:
    def test_join_count_matches_reference(self, machine, r, s):
        result = query.execute(
            query.Aggregate(query.Join(query.TapeScan(r), query.TapeScan(s)), "count"),
            machine,
        )
        assert result.value == hash_join(r.keys, s.keys).n_pairs
        assert result.join_method is not None

    def test_bare_join_returns_join_result(self, machine, r, s):
        result = query.execute(query.Join(query.TapeScan(r), query.TapeScan(s)), machine)
        assert result.value == hash_join(r.keys, s.keys)

    def test_join_sides_are_symmetric(self, machine, r, s):
        forward = query.execute(
            query.Join(query.TapeScan(r), query.TapeScan(s)), machine
        )
        swapped = query.execute(
            query.Join(query.TapeScan(s), query.TapeScan(r)), machine
        )
        assert forward.value == swapped.value

    def test_filter_under_join_charges_a_pass_and_shrinks_the_join(
        self, machine, r, s
    ):
        predicate = query.KeyRange(0, int(r.keys.max() // 3))
        plan = query.Aggregate(
            query.Join(
                query.Filter(query.TapeScan(r), predicate), query.TapeScan(s)
            ),
            "count",
        )
        result = query.execute(plan, machine)
        expected = hash_join(predicate.apply(r.keys), s.keys).n_pairs
        assert result.value == expected
        labels = [label for label, _s in result.passes]
        assert any(label.startswith("filter") for label in labels)
        assert any(label.startswith("join") for label in labels)

    def test_empty_filter_short_circuits_the_join(self, machine, r, s):
        plan = query.Aggregate(
            query.Join(
                query.Filter(query.TapeScan(r), query.KeyRange(10**9, 10**9 + 1)),
                query.TapeScan(s),
            ),
            "count",
        )
        result = query.execute(plan, machine)
        assert result.value == 0
        assert result.join_method is None
        # The filter pass was still paid (the tape had to be read).
        assert result.simulated_s > 0

    def test_selective_filter_can_change_the_chosen_method(self, machine, r, s):
        """Predicate pushdown shrinks R until nested block beats hashing —
        the planner decision the query layer exists to expose."""
        full = query.execute(
            query.Aggregate(query.Join(query.TapeScan(r), query.TapeScan(s)), "count"),
            machine,
        )
        narrow = query.execute(
            query.Aggregate(
                query.Join(
                    query.Filter(query.TapeScan(r), query.KeyModulo(40, 0)),
                    query.TapeScan(s),
                ),
                "count",
            ),
            machine,
        )
        assert narrow.join_method != full.join_method

    def test_scratch_tape_holds_the_filter_survivors(
        self, machine, r, s, monkeypatch
    ):
        written = []
        append = TapeDrive.append

        def recording_append(drive, file, chunk):
            if file.name == "filtered":
                written.append(chunk.keys)
            return append(drive, file, chunk)

        monkeypatch.setattr(TapeDrive, "append", recording_append)
        predicate = query.KeyRange(0, int(r.keys.max() // 3))
        query.execute(
            query.Join(query.Filter(query.TapeScan(r), predicate), query.TapeScan(s)),
            machine,
        )
        np.testing.assert_array_equal(np.concatenate(written), predicate.apply(r.keys))

    def test_stacked_filters_under_a_join_share_one_pass(self, machine, r, s):
        first, second = query.KeyModulo(2, 0), query.KeyRange(0, int(r.keys.max() // 2))
        plan = query.Join(
            query.Filter(query.Filter(query.TapeScan(r), first), second),
            query.TapeScan(s),
        )
        result = query.execute(plan, machine)
        labels = [label for label, _s in result.passes]
        assert sum(label.startswith("filter ") for label in labels) == 1
        assert result.value == hash_join(second.apply(first.apply(r.keys)), s.keys)

    def test_join_is_verified_against_the_reference(self, machine, r, s, monkeypatch):
        import repro.relational.join_core as join_core

        honest = join_core.reference_join(r, s)
        wrong = join_core.JoinResult(honest.n_pairs + 1, honest.checksum)
        monkeypatch.setattr(join_core, "reference_join", lambda r, s: wrong)
        with pytest.raises(api.JoinVerificationError, match="reference join"):
            query.execute(query.Join(query.TapeScan(r), query.TapeScan(s)), machine)


class TestOneSimulation:
    """Every pass of a plan runs on one clock and one pair of drives."""

    PLANS = {
        "scan": lambda r, s: query.Aggregate(query.TapeScan(s), "count"),
        "join": lambda r, s: query.Join(query.TapeScan(r), query.TapeScan(s)),
        "filter under join": lambda r, s: query.Aggregate(
            query.Join(
                query.Filter(query.TapeScan(r), query.KeyModulo(3, 0)),
                query.TapeScan(s),
            ),
            "count",
        ),
        "filters under both sides": lambda r, s: query.Join(
            query.Filter(query.TapeScan(r), query.KeyModulo(2, 0)),
            query.Filter(query.TapeScan(s), query.KeyModulo(2, 1)),
        ),
    }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_one_simulator_per_query(self, machine, r, s, name, monkeypatch):
        built = []
        init = Simulator.__init__

        def counting_init(sim, *args, **kwargs):
            built.append(sim)
            init(sim, *args, **kwargs)

        monkeypatch.setattr(Simulator, "__init__", counting_init)
        result = query.execute(self.PLANS[name](r, s), machine)
        assert len(built) == 1
        assert result.simulated_s == built[0].now
        assert result.simulated_s == pytest.approx(
            sum(seconds for _label, seconds in result.passes)
        )

    def test_the_join_reads_the_filtered_input_from_the_scratch_tape(
        self, machine, r, s, monkeypatch
    ):
        read = []
        take = TapeDrive._take

        def recording_take(drive, tape_file, offset_blocks, n_blocks):
            read.append(tape_file.name)
            return take(drive, tape_file, offset_blocks, n_blocks)

        monkeypatch.setattr(TapeDrive, "_take", recording_take)
        plan = query.Join(
            query.Filter(query.TapeScan(r), query.KeyModulo(3, 0)), query.TapeScan(s)
        )
        query.execute(plan, machine)
        # The filter pass reads only its source; every read of the
        # scratch file is the join's.
        assert "filtered" in read


class TestCartridgeSwaps:
    """Empty drives take their first cartridge for free; a swap is the
    library robot's, on the query's clock, as a pass of its own."""

    def test_first_placements_are_free(self, machine, r, s):
        result = query.execute(query.Join(query.TapeScan(r), query.TapeScan(s)), machine)
        assert [label for label, _s in result.passes] == [
            f"join via {result.join_method}"
        ]

    def test_a_mid_plan_swap_pays_two_exchanges_and_a_load(self, machine, r, s):
        plan = query.Join(
            query.Filter(query.TapeScan(r), query.KeyModulo(3, 0)), query.TapeScan(s)
        )
        result = query.execute(plan, machine)
        # The filter read R to its end: R is rewound before it is ejected.
        swap = machine.tape_params.rewind_s + 2 * 30.0 + machine.tape_params.load_s
        assert [(label, seconds) for label, seconds in result.passes][1] == (
            "mount S on tape_r", swap
        )

    def test_a_relation_read_twice_gets_two_cartridges(self, machine, r):
        plan = query.Join(
            query.Filter(query.TapeScan(r), query.KeyModulo(2, 0)),
            query.Filter(query.TapeScan(r), query.KeyModulo(4, 0)),
        )
        result = query.execute(plan, machine)
        mounts = [label for label, _s in result.passes if label.startswith("mount")]
        assert mounts == ["mount R#2 on tape_r", "mount R'#3 on tape_s", "mount R' on tape_r"]
        assert result.value == hash_join(
            query.KeyModulo(2, 0).apply(r.keys), query.KeyModulo(4, 0).apply(r.keys)
        )


class TestUnsupportedPlans:
    def test_non_count_join_aggregate_rejected(self, machine, r, s):
        plan = query.Aggregate(query.Join(query.TapeScan(r), query.TapeScan(s)), "sum")
        with pytest.raises(UnsupportedPlanError, match="pipelines"):
            query.execute(plan, machine)

    def test_nested_join_rejected(self, machine, r, s):
        inner = query.Join(query.TapeScan(r), query.TapeScan(s))
        with pytest.raises(UnsupportedPlanError, match="tape scan"):
            query.execute(query.Join(inner, query.TapeScan(s)), machine)

    def test_bare_scan_rejected(self, machine, r):
        with pytest.raises(UnsupportedPlanError, match="root"):
            query.execute(query.TapeScan(r), machine)

    def test_unknown_aggregate_kind_rejected(self, r):
        with pytest.raises(ValueError, match="unknown aggregate"):
            query.Aggregate(query.TapeScan(r), "median")
