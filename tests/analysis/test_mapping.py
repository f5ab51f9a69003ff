"""Tests for mapping parameters, including hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MAX_BLOCK_SIZE
from repro.errors import MappingError
from repro.analysis.mapping import (
    DIM_MAX_THREADS,
    Dim,
    LevelMapping,
    Mapping,
    Seq,
    Span,
    SpanAll,
    Split,
    seq_level,
)


def lm(dim=Dim.X, size=32, span=None):
    return LevelMapping(dim, size, span or Span(1))


class TestSpanTypes:
    def test_span_validation(self):
        with pytest.raises(MappingError):
            Span(0)

    def test_split_validation(self):
        with pytest.raises(MappingError):
            Split(1)

    def test_str_forms(self):
        assert str(Span(3)) == "span(3)"
        assert str(SpanAll()) == "span(all)"
        assert str(Split(4)) == "split(4)"
        assert str(Seq()) == "seq"


class TestLevelMapping:
    def test_seq_level_constraints(self):
        with pytest.raises(MappingError):
            LevelMapping(Dim.X, 1, Seq())
        with pytest.raises(MappingError):
            LevelMapping(None, 2, Seq())
        assert not seq_level().parallel

    def test_parallel_needs_dim(self):
        with pytest.raises(MappingError):
            LevelMapping(None, 32, Span(1))

    def test_block_size_positive(self):
        with pytest.raises(MappingError):
            LevelMapping(Dim.X, 0, Span(1))


class TestMappingValidation:
    def test_duplicate_dims_rejected(self):
        with pytest.raises(MappingError):
            Mapping((lm(Dim.X), lm(Dim.X)))

    def test_block_limit(self):
        with pytest.raises(MappingError):
            Mapping((lm(Dim.X, 1024), lm(Dim.Y, 2)))

    def test_dim_thread_limits(self):
        with pytest.raises(MappingError):
            Mapping((lm(Dim.Z, 128),))  # z limited to 64

    def test_needs_at_least_one_level(self):
        with pytest.raises(MappingError):
            Mapping(())


class TestGeometry:
    def test_threads_per_block(self):
        m = Mapping((lm(Dim.X, 32), lm(Dim.Y, 16)))
        assert m.threads_per_block() == 512

    def test_blocks_per_level_span1(self):
        m = Mapping((lm(Dim.X, 32),))
        assert m.blocks_per_level([100]) == [4]  # ceil(100/32)

    def test_blocks_per_level_span_n(self):
        m = Mapping((lm(Dim.X, 32, Span(2)),))
        assert m.blocks_per_level([128]) == [2]

    def test_blocks_span_all_and_split(self):
        m = Mapping((lm(Dim.X, 32, SpanAll()), lm(Dim.Y, 4, Split(3))))
        assert m.blocks_per_level([1000, 1000]) == [1, 3]

    def test_seq_contributes_one_block(self):
        m = Mapping((lm(Dim.X, 32), seq_level()))
        assert m.blocks_per_level([64, 99]) == [2, 1]

    def test_size_count_mismatch(self):
        m = Mapping((lm(Dim.X, 32),))
        with pytest.raises(MappingError):
            m.blocks_per_level([1, 2])

    def test_level_of_dim(self):
        m = Mapping((lm(Dim.Y, 4), lm(Dim.X, 32)))
        assert m.level_of_dim(Dim.X) == 1
        assert m.level_of_dim(Dim.Z) is None


class TestDop:
    def test_span1_full_parallelism(self):
        m = Mapping((lm(Dim.X, 32),))
        assert m.dop([1000]) == 1000

    def test_span_n_divides(self):
        m = Mapping((lm(Dim.X, 32, Span(4)),))
        assert m.dop([1000]) == 250

    def test_span_all_counts_block_size(self):
        """The paper: Span(all) contributes its block size, not the loop
        size, making DOP insensitive to the 1000-default."""
        m = Mapping((lm(Dim.X, 64, SpanAll()),))
        assert m.dop([100000]) == 64

    def test_split_multiplies(self):
        m = Mapping((lm(Dim.X, 64, Split(3)),))
        assert m.dop([100000]) == 192

    def test_seq_contributes_one(self):
        m = Mapping((lm(Dim.X, 32), seq_level()))
        assert m.dop([128, 999]) == 128

    def test_fig7_thread_block_thread(self):
        """DOP = I * min(J, 1024) for the Copperhead-style mapping."""
        m = Mapping(
            (
                LevelMapping(Dim.Y, 1, Span(1)),
                LevelMapping(Dim.X, 1024, SpanAll()),
            )
        )
        assert m.dop([4096, 100000]) == 4096 * 1024
        assert m.dop([4096, 100]) == 4096 * 100

    def test_fig7_warp_based(self):
        """DOP = I * min(J, 32) for the warp-based mapping."""
        m = Mapping(
            (
                LevelMapping(Dim.Y, 16, Span(1)),
                LevelMapping(Dim.X, 32, SpanAll()),
            )
        )
        assert m.dop([4096, 100000]) == 4096 * 32


class TestThreadIterations:
    def test_span(self):
        m = Mapping((lm(Dim.X, 32, Span(5)),))
        assert m.thread_iterations(0, 1000) == 5

    def test_span_all(self):
        m = Mapping((lm(Dim.X, 32, SpanAll()),))
        assert m.thread_iterations(0, 100) == 4  # ceil(100/32)

    def test_split(self):
        m = Mapping((lm(Dim.X, 32, Split(2)),))
        assert m.thread_iterations(0, 128) == 2

    def test_seq(self):
        m = Mapping((lm(Dim.X, 32), seq_level()))
        assert m.thread_iterations(1, 77) == 77


class TestMisc:
    def test_with_level(self):
        m = Mapping((lm(Dim.X, 32), lm(Dim.Y, 4)))
        m2 = m.with_level(1, LevelMapping(Dim.Y, 8, Span(1)))
        assert m2.level(1).block_size == 8
        assert m.level(1).block_size == 4  # original unchanged


# -- property-based tests -------------------------------------------------

valid_block_sizes = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256])
sizes_strategy = st.integers(min_value=1, max_value=10**6)


@given(bx=valid_block_sizes, by=valid_block_sizes, size0=sizes_strategy,
       size1=sizes_strategy)
@settings(max_examples=60)
def test_total_threads_cover_domain_span1(bx, by, size0, size1):
    """With Span(1) everywhere, launched threads >= domain points."""
    if bx * by > MAX_BLOCK_SIZE:
        return
    m = Mapping((lm(Dim.X, bx), lm(Dim.Y, by)))
    assert m.total_threads([size0, size1]) >= size0 * size1


@given(n=st.integers(min_value=1, max_value=64), size=sizes_strategy)
@settings(max_examples=60)
def test_span_n_reduces_dop_monotonically(n, size):
    m1 = Mapping((lm(Dim.X, 32, Span(1)),))
    mn = Mapping((lm(Dim.X, 32, Span(n)),))
    assert mn.dop([size]) <= m1.dop([size])


@given(bx=valid_block_sizes, size=sizes_strategy)
@settings(max_examples=60)
def test_iterations_times_threads_cover_domain(bx, size):
    """blocks * block_size * per-thread iterations covers the domain for
    every span type."""
    for span in (Span(1), Span(3), SpanAll(), Split(2)):
        m = Mapping((LevelMapping(Dim.X, bx, span),))
        blocks = m.blocks_per_level([size])[0]
        iters = m.thread_iterations(0, size)
        assert blocks * bx * iters >= size
