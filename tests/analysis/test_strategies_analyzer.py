"""Tests for fixed strategies (Fig. 7) and the analyzer facade."""

import pytest

from repro.errors import MappingError
from repro.analysis.analyzer import analyze_program
from repro.analysis.mapping import (
    Dim, LevelMapping, Mapping, Seq, Span, SpanAll, Split,
)
from repro.analysis.strategies import (
    FIXED_STRATEGIES,
    fixed_strategy,
    one_d,
    thread_block_thread,
    warp_based,
)


class TestOneD:
    def test_only_level0_parallel(self):
        m = one_d([1000, 500, 20])
        assert m.level(0).parallel and m.level(0).dim == Dim.X
        assert not m.level(1).parallel
        assert not m.level(2).parallel

    def test_dop_ignores_inner_levels(self):
        m = one_d([1000, 500])
        assert m.dop([1000, 500]) == 1000

    def test_needs_a_level(self):
        with pytest.raises(MappingError):
            one_d([])


class TestThreadBlockThread:
    def test_fig7a_parameters(self):
        """Fig 7a: level0 [DimY, 1, Span(1)], level1 [DimX, J-block,
        Span(all)]."""
        m = thread_block_thread([4096, 100000])
        assert m.level(0).dim == Dim.Y and m.level(0).block_size == 1
        assert isinstance(m.level(0).span, Span)
        assert m.level(1).dim == Dim.X and m.level(1).block_size == 1024
        assert isinstance(m.level(1).span, SpanAll)

    def test_small_inner_clamps_block(self):
        m = thread_block_thread([4096, 100])
        assert m.level(1).block_size == 64  # pow2 <= 100

    def test_flat_pattern_degrades_to_1d(self):
        m = thread_block_thread([4096])
        assert m.level(0).dim == Dim.X

    def test_third_level_sequential(self):
        m = thread_block_thread([10, 10, 10])
        assert isinstance(m.level(2).span, Seq)


class TestWarpBased:
    def test_fig7b_parameters(self):
        """Fig 7b: level0 [DimY, 16, Span(1)], level1 [DimX, 32,
        Span(all)]."""
        m = warp_based([4096, 100000])
        assert m.level(0).dim == Dim.Y and m.level(0).block_size == 16
        assert m.level(1).dim == Dim.X and m.level(1).block_size == 32
        assert isinstance(m.level(1).span, SpanAll)

    def test_block_is_512_threads(self):
        assert warp_based([10, 10]).threads_per_block() == 512


class TestRegistry:
    def test_three_strategies(self):
        assert set(FIXED_STRATEGIES) == {
            "1d", "thread-block/thread", "warp-based"
        }

    def test_lookup(self):
        m = fixed_strategy("warp-based", [10, 10])
        assert m.level(1).block_size == 32

    def test_unknown(self):
        with pytest.raises(MappingError, match="unknown strategy"):
            fixed_strategy("magic", [10, 10])


class TestAnalyzerFacade:
    def test_single_kernel_program(self, sum_rows_program):
        pa = analyze_program(sum_rows_program, R=32, C=16)
        assert len(pa) == 1
        assert pa.kernel(0).depth == 2
        assert pa.kernel(0).level_sizes() == [32, 16]

    def test_multi_kernel_program(self):
        from repro.apps.naive_bayes import build_naive_bayes

        pa = analyze_program(build_naive_bayes(), DOCS=4096, WORDS=2048)
        assert len(pa) == 2
        # the two kernels prefer opposite dimension assignments
        m1 = pa.kernel(0).select_mapping().mapping
        m2 = pa.kernel(1).select_mapping().mapping
        assert m1.level(1).dim == Dim.X  # row-wise: inner sequential
        assert m2.level(0).dim == Dim.X  # col-wise: outer sequential

    def test_size_overrides(self, sum_rows_program):
        pa = analyze_program(sum_rows_program, R=100, C=7)
        assert pa.kernel(0).level_sizes() == [100, 7]

    def test_strategy_mapping_helper(self, sum_rows_program):
        pa = analyze_program(sum_rows_program, R=100, C=7)
        m = pa.kernel(0).strategy_mapping("1d")
        assert not m.level(1).parallel


class TestCombinerRule:
    """``KernelAnalysis.needs_combiner``: the k of a split Reduce level."""

    def rule(self, program, *levels):
        ka = analyze_program(program, R=64, C=64).kernel(0)
        return ka.needs_combiner(Mapping(levels))

    def test_split_reduce_level(self, sum_rows_program):
        assert self.rule(
            sum_rows_program,
            LevelMapping(Dim.Y, 1, Span(1)),
            LevelMapping(Dim.X, 256, Split(4)),
        ) == 4

    def test_split_map_level_has_no_combiner(self, sum_rows_program):
        assert self.rule(
            sum_rows_program,
            LevelMapping(Dim.Y, 8, Split(2)),
            LevelMapping(Dim.X, 8, SpanAll()),
        ) == 0

    def test_two_splits_take_the_reduce_level_k(self, sum_rows_program):
        assert self.rule(
            sum_rows_program,
            LevelMapping(Dim.Y, 8, Split(2)),
            LevelMapping(Dim.X, 8, Split(2)),
        ) == 2
