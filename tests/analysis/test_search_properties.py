"""Property-based tests of the search: for randomized constraint sets and
sizes, the selected mapping always satisfies every hard constraint and
respects the candidate-space rules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MAX_BLOCK_SIZE
from repro.analysis.constraints import (
    BlockSizeFloor,
    CoalesceDimX,
    ConstraintSet,
    SpanAllRequired,
)
from repro.analysis.dop import DopWindow
from repro.analysis.mapping import SpanAll, Split
from repro.analysis.scoring import hard_feasible
from repro.analysis.search import search_mapping

sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=10**6), min_size=1, max_size=3
)


def random_cset(draw_levels, span_all_levels, coalesce_levels, weights):
    cset = ConstraintSet()
    for level in span_all_levels:
        if level < draw_levels:
            cset.add(
                SpanAllRequired(
                    True, "local", f"L{level} sync", level=level,
                    reason="sync",
                )
            )
    for level, weight in zip(coalesce_levels, weights):
        if level < draw_levels:
            cset.add(
                CoalesceDimX(
                    False, "local", f"L{level} coalesce", level=level,
                    weight=weight,
                )
            )
    cset.add(BlockSizeFloor(False, "global", "floor", weight=1.0))
    return cset


@given(
    sizes=sizes_strategy,
    span_all=st.sets(st.integers(min_value=0, max_value=2), max_size=2),
    coalesce=st.lists(st.integers(min_value=0, max_value=2), max_size=2),
    weights=st.lists(
        st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
        min_size=2, max_size=2,
    ),
)
@settings(max_examples=30, deadline=None)
def test_search_respects_hard_constraints(sizes, span_all, coalesce, weights):
    levels = len(sizes)
    cset = random_cset(levels, span_all, coalesce, weights)
    result = search_mapping(levels, cset, sizes, block_sizes=(1, 32, 256))
    mapping = result.mapping
    assert hard_feasible(mapping, cset, sizes)
    assert mapping.threads_per_block() <= MAX_BLOCK_SIZE
    # forced Span(all) levels end up Span(all) or a Split refinement
    for level in span_all:
        if level < levels:
            assert isinstance(mapping.level(level).span, (SpanAll, Split))


@given(sizes=sizes_strategy)
@settings(max_examples=20, deadline=None)
def test_search_dop_controlled(sizes):
    levels = len(sizes)
    cset = random_cset(levels, set(), [], [])
    window = DopWindow(min_dop=1024, max_dop=10**6)
    result = search_mapping(
        levels, cset, sizes, window=window, block_sizes=(1, 32, 256),
    )
    dop = result.mapping.dop(sizes)
    total = 1
    for s in sizes:
        total *= s
    # DOP cannot exceed the domain, and stays within ~2x of the window cap
    # (ControlDOP's coarsening is integral).
    assert dop <= max(total, 1024 * 2)
    # ControlDOP applies a single Span(1)->Span(n) replacement (Algorithm
    # 1), so one level can absorb at most its own size.  Either the DOP
    # lands near the cap, or the chosen level was fully coarsened and a
    # single application could do no more.
    from repro.analysis.mapping import Span

    fully_coarsened = any(
        isinstance(lm.span, Span) and lm.span.n >= size
        for lm, size in zip(result.mapping.levels, sizes)
    )
    assert dop <= window.max_dop * 2.1 or fully_coarsened

