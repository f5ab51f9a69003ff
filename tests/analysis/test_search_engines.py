"""Cross-engine byte-identity and engine-selection contract.

The two search engines — the exhaustive reference and the vectorized
batch engine — must pick the *byte-identical* winner for any input:
same mapping, same exact score, same DOP, same candidate counts, the
same top-5 ``ranked`` list, and (under ``keep_all``) the same scored
candidate list in the same order.  ``ranked`` must also equal the
reference's ``keep_all`` list sorted by ``ranking_key``, cut to 5, and
its first entry, after ControlDOP, must be the result's mapping.
These tests replay the checked-in difftest corpus plus a fresh
generator sample through both engines and through ``search_mapping``,
cover sizes past float and int64 precision, then pin the selection
rule: a constraint set whose members all have batch predicates runs
the vectorized engine, any other set the reference fallback.
"""

import os
import random

import pytest

from repro.analysis import analyze_program
from repro.analysis.constraints import Constraint, ConstraintSet, CoalesceDimX
from repro.analysis.dop import DopWindow, control_dop
from repro.analysis.search import (
    RANKED_CANDIDATES,
    ranking_key,
    search_mapping,
    search_mapping_reference,
)
from repro.analysis.vectorized import (
    BatchUnsupported,
    search_mapping_vectorized,
)
from repro.apps import ALL_APPS
from repro.difftest import ProgramGenerator, load_corpus
from repro.difftest.generator import build_program
from repro.errors import SearchError

from .test_search_equivalence import GRID_BY_DEPTH, random_cset
from .test_search_guard import depth4_program

CORPUS_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "integration", "corpus",
    "seed_corpus.json",
)


def _assert_byte_identical(ref, other, context=""):
    """Everything the result contract pins, including keep_all ordering."""
    assert str(other.mapping) == str(ref.mapping), context
    assert other.score == ref.score, context
    assert other.dop == ref.dop, context
    assert other.candidates_total == ref.candidates_total, context
    assert other.candidates_feasible == ref.candidates_feasible, context
    assert other.candidates_scored == ref.candidates_scored, context
    assert other.candidates_skipped == ref.candidates_skipped, context
    assert len(other.all_scored) == len(ref.all_scored), context
    for a, b in zip(ref.all_scored, other.all_scored):
        assert str(b.mapping) == str(a.mapping), context
        assert b.score == a.score, context
        assert b.dop == a.dop, context
    assert _scored(other.ranked) == _scored(ref.ranked), context


def _scored(candidates):
    return [(str(c.mapping), c.score, c.dop) for c in candidates]


def _assert_pick_is_rank_1(result, cset, sizes, context=""):
    """ControlDOP applied to ``ranked[0]`` gives the result's mapping."""
    pick = control_dop(
        result.ranked[0].mapping, tuple(sizes), DopWindow(),
        cset.span_all_levels(),
    )
    assert pick == result.mapping, context
    assert result.ranked[0].score == result.score, context


def _assert_ranked_from_keep_all(ref, cset, sizes, context=""):
    """``ranked`` is the keep_all list in the search's order, cut to 5,
    and its rank 1 is the pick."""
    expected = sorted(ref.all_scored, key=ranking_key)[:RANKED_CANDIDATES]
    assert _scored(ref.ranked) == _scored(expected), context
    _assert_pick_is_rank_1(ref, cset, sizes, context)


def _check_kernel_across_engines(ka, context):
    args = (ka.depth, ka.constraints, ka.level_sizes())
    ref = search_mapping_reference(*args, keep_all=True)
    _assert_ranked_from_keep_all(ref, *args[1:], context)
    # Every generated constraint family carries a batch predicate; the
    # vectorized engine must accept the whole corpus, not quietly
    # degrade.
    vec = search_mapping_vectorized(*args, keep_all=True)
    _assert_byte_identical(ref, vec, f"{context} [vectorized]")
    staged = search_mapping(*args, keep_all=True)
    assert staged.strategy == "vectorized", context
    _assert_byte_identical(ref, staged, f"{context} [search_mapping]")


def test_difftest_corpus_byte_identity():
    """Both engines agree on every checked-in corpus kernel."""
    specs = load_corpus(CORPUS_PATH)
    assert len(specs) >= 20
    checked = 0
    for spec in specs:
        pa = analyze_program(build_program(spec))
        for index, ka in enumerate(pa.kernels):
            _check_kernel_across_engines(
                ka, f"corpus {spec.describe()} kernel {index}"
            )
            checked += 1
    assert checked >= len(specs)


def test_generator_sample_byte_identity():
    """A fresh generator sample agrees across engines too."""
    generator = ProgramGenerator(seed=20260808)
    checked = 0
    while checked < 8:
        spec = generator.random_spec()
        try:
            pa = analyze_program(build_program(spec))
        except Exception:
            continue  # unbuildable specs are the oracle's concern
        for index, ka in enumerate(pa.kernels):
            _check_kernel_across_engines(
                ka, f"generated {spec.describe()} kernel {index}"
            )
            checked += 1


#: Sizes past float and int64 precision, per depth: 2**53 + 1 (the
#: first integer a float cannot hold), DOP products of at least 2**62
#: (past the int64 packed key) and one level of at least 2**63 (past
#: int64 itself).
LARGE_SIZES = {
    1: [[2**53 + 1], [2**62], [2**63 + 5]],
    2: [[2**53 + 1, 7], [2**31, 2**31], [2**63, 100]],
    3: [[2**53 + 1, 32, 3], [2**21, 2**21, 2**21], [7, 2**64 + 1, 1]],
    4: [[2**53 + 1, 1, 7, 32], [2**16] * 4, [2**63, 4096, 2**53 + 1, 7]],
}


def _feasible_cset(rng: random.Random, depth: int) -> ConstraintSet:
    """A random set whose hard Span(all) levels all exist in the nest,
    so some candidate satisfies it."""
    while True:
        cset = random_cset(rng, depth)
        if all(c.level < depth for c in cset.hard):
            return cset


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_randomized_vectorized_equivalence(depth):
    """Randomized constraint sets: vectorized == reference, bit for bit."""
    rng = random.Random(97 * depth)
    grid = GRID_BY_DEPTH[depth]
    trials = 6 if depth <= 2 else 3
    large = LARGE_SIZES[depth]
    for trial in range(trials + len(large)):
        if trial < trials:
            cset = random_cset(rng, depth)
            sizes = [rng.choice([1, 7, 32, 100, 4096]) for _ in range(depth)]
            keep = trial % 2 == 0
        else:
            # Inexact DOPs would show in the keep_all list, so large
            # sizes always keep it, over a set some candidate satisfies.
            cset = _feasible_cset(rng, depth)
            sizes = large[trial - trials]
            keep = True
        context = f"depth={depth} trial={trial} sizes={sizes}"
        try:
            ref = search_mapping_reference(
                depth, cset, sizes, block_sizes=grid, keep_all=keep,
            )
        except SearchError:
            with pytest.raises(SearchError):
                search_mapping_vectorized(
                    depth, cset, sizes, block_sizes=grid, keep_all=keep,
                )
            continue
        vec = search_mapping_vectorized(
            depth, cset, sizes, block_sizes=grid, keep_all=keep,
        )
        _assert_byte_identical(ref, vec, context)
        if keep:
            _assert_ranked_from_keep_all(ref, cset, sizes, context)
        else:
            _assert_pick_is_rank_1(ref, cset, sizes, context)


def test_ranked_orders_ties_by_dimensions_and_spans():
    """With no constraints every candidate scores 0, so the top 5 are
    decided by DOP, block sizes, dimensions and span kinds, ties across
    the cut included."""
    for sizes in ((64, 64), (3, 5), (1, 1)):
        ref = search_mapping_reference(2, ConstraintSet(), sizes,
                                       keep_all=True)
        _assert_ranked_from_keep_all(ref, ConstraintSet(), sizes, sizes)
        vec = search_mapping_vectorized(2, ConstraintSet(), sizes)
        assert _scored(vec.ranked) == _scored(ref.ranked), sizes


def test_depth5_coarse_grid_equivalence():
    """Depth-5 spaces (intractable before) still match the oracle."""
    from repro.analysis.constraints import AvoidDivergence

    cset = ConstraintSet()
    cset.add(CoalesceDimX(False, "local", "c", level=4, weight=5.0))
    cset.add(AvoidDivergence(False, "global", "d", levels=(0, 1), weight=1.0))
    sizes = (4, 8, 16, 64, 256)
    grid = (1, 16, 256)
    ref = search_mapping_reference(5, cset, sizes, block_sizes=grid,
                                   keep_all=True)
    vec = search_mapping_vectorized(5, cset, sizes, block_sizes=grid,
                                    keep_all=True)
    _assert_byte_identical(ref, vec, "depth-5 coarse grid")


#: Kernels whose DOP products overflow int64: sumRows at R = C = 2**31
#: (2**62) and the depth-4 batched kernel at 2**31 per level (2**124).
OVERFLOW_PROGRAMS = {
    "sumRows": lambda: analyze_program(
        ALL_APPS["sumRows"].build(), R=2**31, C=2**31
    ),
    "batched-depth4": lambda: analyze_program(
        depth4_program(), B=2**31, P=2**31, K=2**31, D=2**31
    ),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_PROGRAMS))
def test_overflowing_dop_runs_vectorized(name):
    """Past int64 the batch engine still runs, exact to the reference."""
    ka = OVERFLOW_PROGRAMS[name]().kernel(0)
    args = (ka.depth, ka.constraints, ka.level_sizes())
    ref = search_mapping_reference(*args, keep_all=True)
    result = search_mapping(*args, keep_all=True)
    assert result.strategy == "vectorized"
    _assert_byte_identical(ref, result, name)
    _assert_ranked_from_keep_all(ref, *args[1:], name)


# -- engine selection ------------------------------------------------------


class _Opaque(Constraint):
    """A constraint without a batch predicate."""

    def satisfied_by(self, mapping, level_sizes):
        return True


def _small_space_inputs():
    cset = ConstraintSet()
    cset.add(CoalesceDimX(False, "local", "c", level=0, weight=5.0))
    return 1, cset, (1000,)


def _large_space_inputs():
    cset = ConstraintSet()
    cset.add(CoalesceDimX(False, "local", "c", level=2, weight=5.0))
    return 3, cset, (64, 64, 4096)


def test_engine_follows_constraint_set():
    """Batch predicates on every constraint -> vectorized, whatever the
    size of the space; any constraint without one -> reference-fallback."""
    for depth, cset, sizes in (_small_space_inputs(), _large_space_inputs()):
        result = search_mapping(depth, cset, sizes)
        assert result.strategy == "vectorized"
        assert result.batch_shape == (result.candidates_total, depth)
        cset.add(_Opaque(False, "global", "opaque"))
        result = search_mapping(depth, cset, sizes)
        assert result.strategy == "reference-fallback"
        assert result.batch_shape is None


def test_auto_selects_vectorized_for_large_spaces():
    depth, cset, sizes = _large_space_inputs()
    result = search_mapping(depth, cset, sizes)
    assert result.strategy == "vectorized"
    assert result.batch_shape == (result.candidates_total, depth)


def test_opaque_constraint_falls_back():
    """A constraint without a batch predicate degrades, never errors."""
    depth, cset, sizes = _large_space_inputs()
    cset.add(_Opaque(False, "global", "opaque"))
    with pytest.raises(BatchUnsupported):
        search_mapping_vectorized(depth, cset, sizes)
    # Opaque constraints need per-candidate evaluation: the search runs
    # the exhaustive loop, byte-identical to the reference.
    result = search_mapping(depth, cset, sizes)
    assert result.strategy == "reference-fallback"
    ref = search_mapping_reference(depth, cset, sizes)
    assert str(result.mapping) == str(ref.mapping)
    assert result.score == ref.score


def test_batch_telemetry_recorded():
    """batch_shape flows into telemetry and the metrics registry."""
    from repro.observability import capture

    depth, cset, sizes = _large_space_inputs()
    with capture() as obs:
        result = search_mapping(depth, cset, sizes)
    data = result.telemetry()
    assert data["strategy"] == "vectorized"
    assert data["batch_shape"] == [result.candidates_total, depth]
    histograms = obs.metrics.to_dict()["histograms"]
    assert histograms["search.batch.candidates"]["count"] >= 1
