"""Tier-1 performance guards for the staged search.

A depth-3 search over the full default grid enumerates ~6-25k candidates;
the reference loop needs ~100 ms and the vectorized batch engine
sub-millisecond.  The wall-clock budgets here are deliberately generous
— they exist to catch an accidental return to per-candidate
``satisfied_by`` evaluation, not to benchmark.

``test_vectorized_beats_reference`` is the CI perf-smoke gate: the batch
engine must hold a real multiple over the exhaustive reference on the
depth-4 config, or the change that regressed it fails.
"""

import time

from repro.analysis import analyze_program
from repro.analysis.search import (
    _effective_block_sizes,
    search_mapping,
    search_mapping_reference,
)
from repro.apps import ALL_APPS, merge_params
from repro.config import BLOCK_SIZE_CANDIDATES

SEARCH_BUDGET_SECONDS = 2.0

#: CI perf-smoke floor: vectorized over the exhaustive reference on the
#: depth-4 cold search.  The engine holds several hundred x on the
#: benchmark machines; 100x leaves headroom for noisy shared runners
#: while still catching a collapse back to per-candidate work.
MIN_VECTORIZED_SPEEDUP = 100.0


def _depth3_kernel():
    app = ALL_APPS["msmbuilder"]
    ka = analyze_program(app.build(), **merge_params(app, {})).kernel(0)
    assert ka.depth == 3
    return ka


def test_depth3_search_within_budget():
    ka = _depth3_kernel()

    start = time.perf_counter()
    result = search_mapping(ka.depth, ka.constraints, ka.level_sizes())
    elapsed = time.perf_counter() - start

    # Every built-in constraint has a batch predicate, so the
    # vectorized engine runs.
    assert result.strategy == "vectorized"
    assert result.batch_shape == (result.candidates_total, ka.depth)
    assert elapsed < SEARCH_BUDGET_SECONDS, (
        f"depth-3 search took {elapsed:.2f}s (budget "
        f"{SEARCH_BUDGET_SECONDS}s); did the batch engine regress?"
    )


def depth4_program():
    """Four parallel levels (mirrors the scaling benchmark's depth-4 case)."""
    from repro.ir import Builder, F64
    from repro.ir.builder import range_map

    b = Builder("batchedClustering")
    batches = b.size("B")
    frames = b.size("P")
    clusters = b.size("K")
    x = b.matrix("X", F64, rows="P", cols="D")
    cent = b.matrix("Cent", F64, rows="K", cols="D")
    scale = b.vector("scale", F64, length="B")
    out = range_map(
        batches,
        lambda bi: range_map(
            frames,
            lambda pi: range_map(
                clusters,
                lambda ki: x.row(pi).zip_with(
                    cent.row(ki), lambda a, c: (a - c) * (a - c)
                ).reduce("+") * scale[bi],
                index_name="ki",
            ),
            index_name="pi",
        ),
        index_name="bi",
    )
    return b.build(out)


def _depth4_kernel():
    return analyze_program(depth4_program(), B=8, P=64, K=64, D=64).kernel(0)


def test_vectorized_beats_reference():
    """CI perf smoke: batch engine >= 100x the reference at depth 4."""
    ka = _depth4_kernel()
    assert ka.depth == 4
    # Depth >= 4 coarsens the grid by default; make both engines search
    # the identical space.
    grid = _effective_block_sizes(ka.depth, BLOCK_SIZE_CANDIDATES)
    args = (ka.depth, ka.constraints, ka.level_sizes())

    # The reference is timed once (it runs for hundreds of ms); the
    # vectorized engine best of three, which also warms its structure
    # memo.
    start = time.perf_counter()
    ref = search_mapping_reference(*args, block_sizes=grid)
    ref_time = time.perf_counter() - start
    vec_time = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        vec = search_mapping(*args, block_sizes=grid)
        vec_time = min(vec_time, time.perf_counter() - start)

    assert vec.strategy == "vectorized"
    assert str(vec.mapping) == str(ref.mapping)
    assert vec.score == ref.score
    speedup = ref_time / vec_time
    assert speedup >= MIN_VECTORIZED_SPEEDUP, (
        f"vectorized engine only {speedup:.1f}x over the reference "
        f"({vec_time * 1e3:.2f}ms vs {ref_time * 1e3:.2f}ms); "
        f"floor is {MIN_VECTORIZED_SPEEDUP}x"
    )
