"""Equivalence of the staged search against the exhaustive reference.

The vectorized engine is pure performance work: for any constraint
set it must select the *byte-identical* winner — same mapping, same
score, same DOP, same candidate counts — because the figure
experiments and codegen snapshots depend on the exact choice
(including the order among tied candidates).  These tests compare
``search_mapping`` against the reference across randomized constraint
sets at depths 1-4 and over every bundled application kernel.
"""

import random

import pytest

from repro.analysis import analyze_program
from repro.analysis.constraints import (
    AvoidDivergence,
    BlockSizeFloor,
    CoalesceDimX,
    ConstraintSet,
    NoWastedThreads,
    SpanAllRequired,
)
from repro.analysis.search import (
    enumerate_candidates,
    search_mapping,
    search_mapping_reference,
)
from repro.analysis.vectorized import materialize_candidates
from repro.apps import ALL_APPS, merge_params
from repro.config import WARP_SIZE
from repro.errors import SearchError

#: Smaller grids keep the exhaustive oracle fast at depth >= 3.
GRID_BY_DEPTH = {
    1: (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    2: (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    3: (1, 8, 64, 512),
    4: (1, 32, 256),
}


def random_cset(rng: random.Random, depth: int) -> ConstraintSet:
    """A constraint set drawn from every supported constraint family.

    Levels are sampled from ``depth + 1`` so out-of-range levels (which
    make SpanAllRequired unsatisfiable and the others trivially pass or
    fail) are covered too.
    """
    cset = ConstraintSet()
    for level in range(depth + 1):
        if rng.random() < 0.3:
            cset.add(SpanAllRequired(
                True, "local", f"L{level} sync", level=level,
                reason=rng.choice(["sync", "dynamic"]),
            ))
        if rng.random() < 0.5:
            cset.add(CoalesceDimX(
                False, "local", f"L{level} coalesce", level=level,
                weight=rng.uniform(0.1, 1e6),
            ))
        if rng.random() < 0.4:
            cset.add(NoWastedThreads(
                False, "local", f"L{level} fit", level=level,
                weight=rng.uniform(0.1, 1e4),
            ))
    if rng.random() < 0.5:
        cset.add(BlockSizeFloor(
            False, "global", "floor", weight=rng.uniform(0.1, 1e5),
        ))
    if rng.random() < 0.5:
        deps = tuple(sorted(rng.sample(
            range(depth), k=rng.randint(1, depth),
        )))
        cset.add(AvoidDivergence(
            False, "global", "divergence", levels=deps,
            weight=rng.uniform(0.1, 1e5),
        ))
    return cset


def assert_equivalent(ref, new, context=""):
    assert new.mapping == ref.mapping, context
    assert new.score == ref.score, context
    assert new.dop == ref.dop, context
    assert new.candidates_total == ref.candidates_total, context
    assert new.candidates_feasible == ref.candidates_feasible, context


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("trial_seed", [0, 1, 2])
def test_randomized_equivalence(depth, trial_seed):
    rng = random.Random(1000 * depth + trial_seed)
    grid = GRID_BY_DEPTH[depth]
    trials = 8 if depth <= 2 else 4
    for trial in range(trials):
        cset = random_cset(rng, depth)
        sizes = [rng.choice([1, 7, 32, 100, 4096]) for _ in range(depth)]
        context = f"depth={depth} trial={trial} sizes={sizes}"
        try:
            ref = search_mapping_reference(
                depth, cset, sizes, block_sizes=grid,
            )
        except SearchError:
            with pytest.raises(SearchError):
                search_mapping(
                    depth, cset, sizes, block_sizes=grid,
                )
            continue
        new = search_mapping(
            depth, cset, sizes, block_sizes=grid,
        )
        assert_equivalent(ref, new, context)


@pytest.mark.parametrize("depth", [2, 3])
def test_keep_all_equivalence(depth):
    """keep_all must retain every feasible candidate in reference order."""
    rng = random.Random(depth)
    grid = GRID_BY_DEPTH[max(depth, 3)]
    for trial in range(3):
        cset = random_cset(rng, depth)
        sizes = [rng.choice([1, 32, 4096]) for _ in range(depth)]
        try:
            ref = search_mapping_reference(
                depth, cset, sizes, block_sizes=grid, keep_all=True,
            )
        except SearchError:
            continue
        new = search_mapping(
            depth, cset, sizes, block_sizes=grid, keep_all=True,
        )
        assert_equivalent(ref, new, f"depth={depth} trial={trial}")
        assert new.all_scored == ref.all_scored


def test_all_apps_equivalence():
    """Byte-identical winners for every bundled application kernel."""
    checked = 0
    for name, app in sorted(ALL_APPS.items()):
        pa = analyze_program(app.build(), **merge_params(app, {}))
        for index, ka in enumerate(pa.kernels):
            args = (ka.depth, ka.constraints, ka.level_sizes())
            ref = search_mapping_reference(*args)
            new = search_mapping(*args)
            assert_equivalent(ref, new, f"{name} kernel {index}")
            checked += 1
    assert checked >= len(ALL_APPS)


def test_warp_eval_matches_mapping():
    """The batch warp model must agree with Mapping.varies_within_warp."""
    depth = 3
    grid = (1, 2, 8, 32, 256)
    batch, _ = materialize_candidates(
        depth, ConstraintSet(), grid, (64, 64, 64)
    )
    varies = [batch.warp_varies(level) for level in range(depth)]
    rows = 0
    # Batch rows follow the reference enumeration order.
    for row, mapping in enumerate(
        enumerate_candidates(depth, ConstraintSet(), grid)
    ):
        for level in range(depth):
            assert bool(varies[level][row]) == mapping.varies_within_warp(
                level, WARP_SIZE
            ), (str(mapping), level)
        rows += 1
    assert rows == len(batch)
