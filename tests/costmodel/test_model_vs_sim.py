"""The analytical model and the simulator must agree in shape.

The paper validates its analytical charts against the experimental
implementation; we do the reverse: for a grid of configurations the
closed-form estimate must stay within a modest factor of the simulated
response (the simulator adds positioning and contention the transfer-only
model ignores), and the two must rank method pairs consistently where the
gap is decisive.
"""

import pytest

from repro.core.registry import method_by_symbol, symbols
from repro.core.spec import InfeasibleJoinError, JoinSpec
from repro.costmodel.formulas import estimate
from repro.costmodel.parameters import SystemParameters
from repro.relational.datagen import uniform_relation

CONFIGS = [
    # (memory_blocks, disk_blocks) for the |R|~51, |S|~205 block pair.
    (10.0, 130.0),
    (25.0, 130.0),
    (45.0, 160.0),
    (10.0, 60.0),
]


@pytest.fixture(scope="module")
def pair():
    r = uniform_relation("R", 5.0, tuple_bytes=4096, seed=11)
    s = uniform_relation("S", 20.0, tuple_bytes=4096, seed=12, key_space=4 * r.n_tuples)
    return r, s


@pytest.fixture(scope="module")
def measured(pair):
    r, s = pair
    results = {}
    for memory, disk in CONFIGS:
        for symbol in symbols():
            spec = JoinSpec(r, s, memory_blocks=memory, disk_blocks=disk)
            try:
                stats = method_by_symbol(symbol).run(spec)
            except InfeasibleJoinError:
                continue
            cost = estimate(symbol, SystemParameters.from_spec(spec))
            if cost.feasible:
                results[(memory, disk, symbol)] = (stats, cost)
    return results


class TestAbsoluteAgreement:
    def test_model_within_a_factor_of_simulation(self, measured):
        # The transfer-only model omits positioning and contention, so the
        # simulator may legitimately run somewhat slower — never faster
        # than the model by much, never slower by more than ~2.5x.
        assert measured, "no feasible configurations measured"
        for key, (stats, cost) in measured.items():
            ratio = stats.response_s / cost.total_s
            assert 0.5 < ratio < 2.5, (key, ratio)

    def test_model_counts_match_simulation(self, measured):
        """The model's Step II iterations and R scans are the simulator's,
        exactly, for every method."""
        assert {symbol for _m, _d, symbol in measured} == set(symbols())
        for key, (stats, cost) in measured.items():
            assert stats.iterations == cost.iterations, key
            assert stats.r_scans == cost.r_scans, key


class TestOrderingAgreement:
    def test_decisive_rankings_match(self, measured):
        """Whenever the model predicts a ≥2.2x gap between two methods in
        the same configuration, the simulation must agree on the winner.
        (Smaller predicted gaps can be swallowed by the positioning costs
        the transfer-only model ignores.)"""
        by_config = {}
        for (memory, disk, symbol), (stats, cost) in measured.items():
            by_config.setdefault((memory, disk), []).append((symbol, stats, cost))
        checked = 0
        for entries in by_config.values():
            for i, (sym_a, stats_a, cost_a) in enumerate(entries):
                for sym_b, stats_b, cost_b in entries[i + 1:]:
                    if cost_a.total_s > 2.2 * cost_b.total_s:
                        assert stats_a.response_s > stats_b.response_s, (sym_a, sym_b)
                        checked += 1
                    elif cost_b.total_s > 2.2 * cost_a.total_s:
                        assert stats_b.response_s > stats_a.response_s, (sym_a, sym_b)
                        checked += 1
        assert checked > 3  # the grid must actually exercise this
