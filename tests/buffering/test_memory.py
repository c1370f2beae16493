"""Memory budget ledger."""

import pytest

from repro.buffering.memory import MemoryBudgetError, MemoryManager


class TestMemoryManager:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            MemoryManager(0.0)

    def test_take_and_give(self):
        memory = MemoryManager(10.0)
        memory.take(6.0)
        assert memory.free_blocks == pytest.approx(4.0)
        memory.give(2.0)
        assert memory.used_blocks == pytest.approx(4.0)

    def test_over_budget_raises_with_purpose(self):
        memory = MemoryManager(10.0)
        memory.take(8.0)
        with pytest.raises(MemoryBudgetError, match="R bucket"):
            memory.take(3.0, purpose="R bucket")

    def test_exact_budget_allowed(self):
        memory = MemoryManager(10.0)
        memory.take(10.0)
        assert memory.free_blocks == pytest.approx(0.0)

    def test_give_more_than_taken_raises(self):
        memory = MemoryManager(10.0)
        memory.take(2.0)
        with pytest.raises(ValueError, match="only"):
            memory.give(3.0)

    def test_negative_amounts_rejected(self):
        memory = MemoryManager(10.0)
        with pytest.raises(ValueError):
            memory.take(-1.0)
        with pytest.raises(ValueError):
            memory.give(-1.0)

    def test_nan_budget_and_amounts_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            MemoryManager(nan)
        memory = MemoryManager(10.0)
        with pytest.raises(ValueError):
            memory.take(nan)
        with pytest.raises(ValueError):
            memory.give(nan)
        assert memory.used_blocks == 0.0
        with pytest.raises(MemoryBudgetError):
            memory.take(1e9)

    def test_peak_tracking(self):
        memory = MemoryManager(10.0)
        memory.take(7.0)
        memory.give(7.0)
        memory.take(3.0)
        assert memory.peak_used_blocks == pytest.approx(7.0)

    def test_hold_context_manager(self):
        memory = MemoryManager(10.0)
        with memory.hold(5.0):
            assert memory.used_blocks == pytest.approx(5.0)
        assert memory.used_blocks == pytest.approx(0.0)

    def test_hold_releases_on_exception(self):
        memory = MemoryManager(10.0)
        with pytest.raises(RuntimeError):
            with memory.hold(5.0):
                raise RuntimeError("boom")
        assert memory.used_blocks == pytest.approx(0.0)
