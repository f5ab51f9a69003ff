"""Budgeted execution: node budgets, deadlines, and graceful fallback."""

import time

import pytest

from repro.analysis.constraints import ConstraintSet
from repro.analysis.scoring import hard_feasible
from repro.analysis.search import search_mapping, search_mapping_reference
from repro.errors import BudgetExhaustedError
from repro.resilience.budget import CLOCK_STRIDE, Budget


class FakeClock:
    """An injectable monotonic clock advanced by the test."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestBudget:
    def test_default_budget_never_exhausts(self):
        budget = Budget().start()
        for _ in range(10_000):
            assert budget.spend()
        assert not budget.exhausted()
        assert not budget.bounded

    def test_node_budget_exhausts_exactly(self):
        budget = Budget(max_nodes=10).start()
        for _ in range(10):
            assert budget.spend()
        assert not budget.exhausted()
        assert not budget.spend()
        assert budget.exhausted()
        assert budget.nodes_spent == 11

    def test_deadline_sampled_at_clock_stride(self):
        clock = FakeClock()
        budget = Budget(deadline_s=1.0, clock=clock).start()
        clock.now = 5.0  # deadline long past, but the clock is amortized
        for _ in range(CLOCK_STRIDE - 1):
            assert budget.spend()
        assert not budget.spend()  # the stride-th spend samples the clock
        assert budget.exhausted()

    def test_exhausted_samples_clock_immediately(self):
        clock = FakeClock()
        budget = Budget(deadline_s=1.0, clock=clock).start()
        assert not budget.exhausted()
        clock.now = 1.5
        assert budget.exhausted()

    def test_fresh_copies_limits_not_spend(self):
        budget = Budget(max_nodes=5).start()
        for _ in range(6):
            budget.spend()
        assert budget.exhausted()
        child = budget.fresh()
        assert child.max_nodes == 5
        assert child.nodes_spent == 0
        assert not child.exhausted()

    def test_force_expire(self):
        budget = Budget().start()
        budget.force_expire()
        assert budget.exhausted()
        assert not budget.spend()

    def test_check_raises_typed_error(self):
        budget = Budget(max_nodes=0).start()
        budget.spend()
        with pytest.raises(BudgetExhaustedError):
            budget.check("unit test")

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline_s=-1.0)
        with pytest.raises(ValueError):
            Budget(max_nodes=-1)


class TestBudgetedSearch:
    def test_exhausted_budget_degrades_to_feasible_fallback(self):
        cset = ConstraintSet()
        sizes = (32, 32, 32)
        result = search_mapping(
            3, cset, sizes, budget=Budget(max_nodes=50)
        )
        assert result.degraded
        assert result.strategy == "fallback"
        assert result.degraded_reason
        assert hard_feasible(result.mapping, cset, sizes)

    def test_depth4_search_bounded_time_under_budget(self):
        """The acceptance bar: a depth-4 search with an exhausted budget
        returns the fallback in bounded time instead of enumerating the
        exponential candidate space."""
        cset = ConstraintSet()
        sizes = (16, 16, 16, 16)
        start = time.perf_counter()
        result = search_mapping(
            4, cset, sizes, budget=Budget(max_nodes=100)
        )
        elapsed = time.perf_counter() - start
        assert result.degraded
        assert hard_feasible(result.mapping, cset, sizes)
        assert elapsed < 1.0, (
            f"budgeted depth-4 search took {elapsed:.2f}s; the budget "
            "is not bounding the walk"
        )

    def test_ample_budget_matches_unbudgeted_search(self):
        cset = ConstraintSet()
        sizes = (64, 64)
        unbudgeted = search_mapping(2, cset, sizes)
        budgeted = search_mapping(
            2, cset, sizes, budget=Budget(max_nodes=10_000_000)
        )
        assert not budgeted.degraded
        assert budgeted.mapping == unbudgeted.mapping
        assert budgeted.score == unbudgeted.score

    def test_reference_search_also_degrades(self):
        cset = ConstraintSet()
        sizes = (32, 32, 32)
        result = search_mapping_reference(
            3, cset, sizes, budget=Budget(max_nodes=50)
        )
        assert result.degraded
        assert hard_feasible(result.mapping, cset, sizes)

    def test_degraded_result_not_cached(self):
        cset = ConstraintSet()
        sizes = (32, 32, 32)
        degraded = search_mapping(
            3, cset, sizes, budget=Budget(max_nodes=10)
        )
        assert degraded.degraded
        full = search_mapping(3, cset, sizes)
        assert not full.degraded
