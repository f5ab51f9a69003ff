"""Tests for the Algorithm-1 search and ControlDOP."""

import pytest

from repro.analysis.analyzer import analyze_kernel, analyze_program
from repro.analysis.constraints import ConstraintSet, SpanAllRequired
from repro.analysis.dop import DopWindow, control_dop
from repro.analysis.mapping import (
    Dim,
    LevelMapping,
    Mapping,
    Span,
    SpanAll,
    Split,
)
from repro.analysis.search import enumerate_candidates, search_mapping
from repro.analysis.shapes import SizeEnv
from repro.errors import SearchError


def lm(dim, size, span):
    return LevelMapping(dim, size, span)


class TestDopWindow:
    def test_k20c_values(self):
        """Section IV-D: MIN_DOP = 13 SMs x 2048; MAX = 100x."""
        from repro.gpusim.device import TESLA_K20C

        window = TESLA_K20C.dop_window()
        assert window.min_dop == 13 * 2048 == 26624
        assert window.max_dop == 100 * 26624

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DopWindow(min_dop=100, max_dop=10)


class TestControlDop:
    def test_low_dop_splits_span_all(self):
        m = Mapping((lm(Dim.Y, 1, Span(1)), lm(Dim.X, 64, SpanAll())))
        # DOP = 100 * 64 = 6400 < 26624 -> split
        out = control_dop(m, [100, 100000], DopWindow(), {1: True})
        assert isinstance(out.level(1).span, Split)
        assert out.dop([100, 100000]) >= 6400

    def test_dynamic_level_never_split(self):
        m = Mapping((lm(Dim.Y, 1, Span(1)), lm(Dim.X, 64, SpanAll())))
        out = control_dop(m, [100, 100000], DopWindow(), {1: False})
        assert isinstance(out.level(1).span, SpanAll)

    def test_high_dop_coarsens_span1(self):
        m = Mapping((lm(Dim.X, 256, Span(1)),))
        size = 10**9
        out = control_dop(m, [size], DopWindow(), {})
        span = out.level(0).span
        assert isinstance(span, Span) and span.n > 1
        assert out.dop([size]) <= DopWindow().max_dop * 2

    def test_in_window_untouched(self):
        m = Mapping((lm(Dim.X, 256, Span(1)),))
        out = control_dop(m, [100000], DopWindow(), {})
        assert out is m

    def test_split_capped_by_iterations(self):
        # Splitting beyond per-block iterations is useless.
        m = Mapping((lm(Dim.X, 64, SpanAll()),))
        out = control_dop(m, [128], DopWindow(), {0: True})
        span = out.level(0).span
        if isinstance(span, Split):
            assert span.k <= 2  # only 2 iterations per thread to split


class TestEnumeration:
    def test_respects_forced_span_all(self):
        cset = ConstraintSet()
        cset.add(SpanAllRequired(True, "local", "", level=1, reason="sync"))
        for m in enumerate_candidates(2, cset):
            assert isinstance(m.level(1).span, SpanAll)

    def test_block_products_capped(self):
        cset = ConstraintSet()
        for m in enumerate_candidates(2, cset, block_sizes=(256, 1024)):
            assert m.threads_per_block() <= 1024

    def test_dims_distinct(self):
        cset = ConstraintSet()
        for m in enumerate_candidates(3, cset, block_sizes=(4,)):
            dims = [lvl.dim for lvl in m.levels]
            assert len(set(dims)) == 3

    def test_space_size_reasonable(self):
        """Brute force stays tractable for 1-3 levels (Section IV-D)."""
        cset = ConstraintSet()
        counts = [
            sum(1 for _ in enumerate_candidates(depth, cset))
            for depth in (1, 2, 3)
        ]
        assert counts[0] < 100
        assert counts[2] < 100_000


class TestSearch:
    def test_sum_rows_mapping(self, sum_rows_program):
        ka = analyze_program(sum_rows_program, R=1024, C=65536).kernel(0)
        result = ka.select_mapping()
        m = result.mapping
        # inner (sequential access) level on dim x, Span(all) for the
        # reduce; outer on another dim.
        assert m.level(1).dim == Dim.X
        assert isinstance(m.level(1).span, (SpanAll, Split))
        assert m.level(1).block_size % 32 == 0

    def test_sum_cols_mapping(self, sum_cols_program):
        ka = analyze_program(sum_cols_program, R=65536, C=1024).kernel(0)
        m = ka.select_mapping().mapping
        assert m.level(0).dim == Dim.X  # outer index is the sequential one
        assert m.level(0).block_size % 32 == 0

    def test_deterministic_given_seed(self, sum_rows_program):
        ka = analyze_program(sum_rows_program, R=1024, C=1024).kernel(0)
        a = search_mapping(ka.depth, ka.constraints, ka.level_sizes())
        b = search_mapping(ka.depth, ka.constraints, ka.level_sizes())
        assert a.mapping == b.mapping

    def test_keep_all_collects_candidates(self, sum_rows_program):
        ka = analyze_program(sum_rows_program, R=256, C=256).kernel(0)
        result = ka.select_mapping(keep_all=True)
        assert len(result.all_scored) == result.candidates_feasible
        assert result.candidates_feasible > 100

    def test_best_score_is_max(self, sum_rows_program):
        ka = analyze_program(sum_rows_program, R=256, C=256).kernel(0)
        result = ka.select_mapping(keep_all=True)
        assert result.score == max(s.score for s in result.all_scored)

    def test_size_mismatch_raises(self, sum_rows_program):
        ka = analyze_program(sum_rows_program, R=256, C=256).kernel(0)
        with pytest.raises(SearchError):
            search_mapping(ka.depth, ka.constraints, [256])

    def test_dop_controlled(self, sum_rows_program):
        from repro.gpusim.device import TESLA_K20C

        ka = analyze_program(sum_rows_program, R=10**6, C=64).kernel(0)
        window = TESLA_K20C.dop_window()
        result = ka.select_mapping(window=window)
        dop = result.mapping.dop(ka.level_sizes())
        assert dop <= window.max_dop * 2  # coarsening is approximate


class TestScoring:
    def test_infeasible_returns_none(self, sum_rows_program):
        from repro.analysis.scoring import score_mapping

        ka = analyze_program(sum_rows_program, R=64, C=64).kernel(0)
        bad = Mapping((lm(Dim.Y, 1, Span(1)), lm(Dim.X, 64, Span(1))))
        # level 1 must be Span(all) (reduce) -> infeasible
        assert score_mapping(bad, ka.constraints, [64, 64]) is None

    def test_score_sums_satisfied_weights(self, sum_rows_program):
        from repro.analysis.scoring import satisfied_constraints, score_mapping

        ka = analyze_program(sum_rows_program, R=64, C=64).kernel(0)
        m = Mapping((lm(Dim.Y, 1, Span(1)), lm(Dim.X, 64, SpanAll())))
        score = score_mapping(m, ka.constraints, [64, 64])
        parts = satisfied_constraints(m, ka.constraints, [64, 64])
        assert score == pytest.approx(
            sum(getattr(c, "weight", 0.0) for c in parts)
        )
