"""Mapping search (Algorithm 1 of the paper).

Candidates are the cross product, per nest level, of

* a logical dimension (distinct per level; x is fastest-varying),
* a block size from ``{1, 2, 4, ..., 1024}``,
* a span type from ``{Span(1), Span(all)}`` (Span(n)/Split(k) are
  introduced afterwards by :func:`~repro.analysis.dop.control_dop`).

Hard constraints prune candidates; the rest are scored by the satisfied
soft-constraint weights.  Every feasible candidate then sits in one
deterministic total order, :func:`ranking_key`: higher score, then
higher DOP, then larger block sizes, then larger dimensions, then
larger span kinds (``Span(all)`` above ``Span(1)``), the last three
compared level by level from the outermost.  The pick is rank 1 of that
order (the paper breaks its final ties at random; a total order makes
every run, engine and provenance record agree on the same candidate).

Every result carries ``ranked``: the top :data:`RANKED_CANDIDATES`
feasible candidates before ControlDOP, in that order, so ``ranked[0]``
is the mapping ControlDOP adjusts.  Provenance records read it instead
of searching again.

Two engines share that contract:

* :func:`search_mapping_reference` — the exhaustive loop.  It
  enumerates every structurally valid candidate and calls every
  constraint's ``satisfied_by`` per candidate.  It is the oracle for the
  equivalence tests, and the engine for constraint sets the batch engine
  cannot evaluate.
* the vectorized batch engine (:mod:`repro.analysis.vectorized`) — the
  whole candidate space as integer-coded NumPy matrices, every
  constraint one vectorized predicate, the order read off packed
  integer keys.

:func:`search_mapping` is the staged pipeline over both: it runs the
engine the constraint set admits.  When every constraint has a batch
predicate the vectorized engine runs; otherwise, or when a predicate
declines at runtime, the exhaustive loop runs under the label
``reference-fallback``.  Both engines return byte-identical results.

Equivalence rests on the vectorized engine accounting for candidates in
the reference's enumeration order.  Dimension permutations are
enumerated outermost and span kinds innermost, both in increasing
order, so among candidates tying on score, DOP and block sizes the
later one is the larger by :func:`ranking_key`; the batch engine orders
such ties by position.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..config import BLOCK_SIZE_CANDIDATES, MAX_BLOCK_SIZE
from ..errors import SearchError
from ..observability import get_metrics, instrumented_stage
from ..resilience.budget import Budget
from .constraints import ConstraintSet
from .dop import DopWindow, control_dop
from .mapping import (
    DIM_MAX_THREADS,
    Dim,
    LevelMapping,
    Mapping,
    Span,
    SpanAll,
    SpanType,
    span_code,
)
from .scoring import ScoredMapping, score_mapping


#: How many ranked candidates every search result carries.
RANKED_CANDIDATES = 5


class _BudgetStop(Exception):
    """Internal: unwinds the candidate walk when the budget runs out."""


def ranking_key(scored: ScoredMapping) -> tuple:
    """The search's total order on feasible candidates; rank 1 (the
    smallest key) is the pick.

    Higher score, then higher DOP, then larger block sizes, then larger
    dimensions, then larger span kinds (``Span(all)`` above
    ``Span(1)``); each of the last three compares level by level from
    the outermost.  At equal score and parallelism, threads are better
    spent on the outer levels than on oversizing a ``Span(all)`` level
    whose domain they exceed.  No two candidates share a key.
    """
    levels = scored.mapping.levels
    return (
        -scored.score,
        -scored.dop,
        tuple(-lm.block_size for lm in levels),
        tuple(-lm.dim for lm in levels),
        tuple(-span_code(lm.span) for lm in levels),
    )


@dataclass
class SearchResult:
    """The winning mapping plus diagnostics about the explored space."""

    mapping: Mapping
    score: float
    dop: int
    candidates_total: int
    candidates_feasible: int
    #: "vectorized", "reference", "reference-fallback" (constraints
    #: without a batch predicate), or "fallback" (budget exhausted /
    #: absorbed fault).
    strategy: str
    #: Every feasible candidate with its score (populated only when
    #: ``keep_all=True``; used by the Fig. 17 scatter experiment).
    all_scored: List[ScoredMapping] = field(default_factory=list)
    #: The top :data:`RANKED_CANDIDATES` feasible candidates before
    #: ControlDOP, in :func:`ranking_key` order; ``ranked[0]`` is the
    #: pick (empty for a degraded result).
    ranked: List[ScoredMapping] = field(default_factory=list)
    # -- search telemetry ------------------------------------------------
    #: Candidates whose score was individually evaluated.
    candidates_scored: int = 0
    #: Candidates the search gave up on without evaluating them (the
    #: budget-exhausted fallback).
    candidates_skipped: int = 0
    #: Wall time of the search that produced this result.
    elapsed_ms: float = 0.0
    #: True when the search gave up and returned the conservative
    #: fallback mapping instead of the Algorithm 1 winner.
    degraded: bool = False
    #: Why the search degraded (empty for full-fidelity results).
    degraded_reason: str = ""
    #: ``(rows, levels)`` of the candidate matrix when the vectorized
    #: engine ran; None for the exhaustive loop.
    batch_shape: Optional[Tuple[int, int]] = None

    def telemetry(self) -> dict:
        """The canonical diagnostics view of this result.

        Single source for every reporting surface: the metrics registry
        (:func:`_record_search_metrics`) and the provenance record, whose
        render is every printed rationale (``repro map --explain``,
        compilation reports, ``repro explain``) — so search counters are
        defined once, not duplicated per format.
        """
        return {
            "strategy": self.strategy,
            "candidates_total": self.candidates_total,
            "candidates_feasible": self.candidates_feasible,
            "candidates_scored": self.candidates_scored,
            "candidates_skipped": self.candidates_skipped,
            "elapsed_ms": self.elapsed_ms,
            "degraded": self.degraded,
            # A list, so the dict is JSON-round-trip stable (provenance
            # artifacts compare loaded against built).
            "batch_shape": (
                None if self.batch_shape is None else list(self.batch_shape)
            ),
        }


def _effective_block_sizes(
    num_levels: int, block_sizes: Sequence[int]
) -> Tuple[int, ...]:
    if num_levels >= 4 and block_sizes is BLOCK_SIZE_CANDIDATES:
        # The space is exponential in nest depth (Section IV-D); beyond
        # three levels a power-of-4 block grid keeps the search under a
        # second while still spanning the useful shapes.
        return (1, 4, 16, 64, 256, 1024)
    return tuple(block_sizes)


def span_options_for_levels(
    cset: ConstraintSet, num_levels: int
) -> Tuple[Tuple[SpanType, ...], ...]:
    """Per-level span options, in the search's enumeration order.

    Levels under a hard Span(all) requirement get ``(SpanAll(),)``; the
    rest get ``(Span(1), SpanAll())``.  Both engines read this so their
    candidate spaces stay identical.
    """
    span_all = cset.span_all_levels()
    return tuple(
        (SpanAll(),) if level in span_all else (Span(1), SpanAll())
        for level in range(num_levels)
    )


def enumerate_candidates(
    num_levels: int,
    cset: ConstraintSet,
    block_sizes: Sequence[int] = BLOCK_SIZE_CANDIDATES,
) -> Iterator[Mapping]:
    """Yield structurally valid candidate mappings.

    Enumeration applies the cheap hard limits inline (distinct dims,
    per-dim and per-block thread caps, forced Span(all) levels) so the
    scorer only sees plausible mappings.
    """
    dims = list(Dim)[:num_levels]
    span_options_per_level = span_options_for_levels(cset, num_levels)

    for dim_perm in itertools.permutations(dims, num_levels):
        for sizes in itertools.product(block_sizes, repeat=num_levels):
            product = 1
            valid = True
            for dim, size in zip(dim_perm, sizes):
                if size > DIM_MAX_THREADS[dim]:
                    valid = False
                    break
                product *= size
            if not valid or product > MAX_BLOCK_SIZE:
                continue
            for spans in itertools.product(*span_options_per_level):
                yield Mapping(
                    tuple(
                        LevelMapping(dim, size, span)
                        for dim, size, span in zip(dim_perm, sizes, spans)
                    )
                )


def _validate(num_levels: int, sizes: Sequence[int]) -> Tuple[int, ...]:
    sizes_t = tuple(sizes)
    if len(sizes_t) != num_levels:
        raise SearchError(
            f"expected {num_levels} level sizes, got {len(sizes_t)}"
        )
    return sizes_t


def _finish(
    ranked: List[ScoredMapping],
    cset: ConstraintSet,
    sizes_t: Tuple[int, ...],
    window: DopWindow,
    total: int,
    feasible: int,
    all_scored: List[ScoredMapping],
    strategy: str,
) -> SearchResult:
    """Apply ControlDOP to rank 1 and assemble the result (both engines
    score every candidate they enumerate)."""
    if not ranked:
        raise SearchError("no feasible mapping satisfies the hard constraints")
    pick = ranked[0]
    adjusted = control_dop(
        pick.mapping, sizes_t, window, cset.span_all_levels()
    )
    return SearchResult(
        mapping=adjusted,
        score=pick.score,
        dop=adjusted.dop(sizes_t),
        candidates_total=total,
        candidates_feasible=feasible,
        all_scored=all_scored,
        ranked=ranked,
        candidates_scored=total,
        strategy=strategy,
    )


def _search_exhaustive(
    num_levels: int,
    cset: ConstraintSet,
    sizes_t: Tuple[int, ...],
    window: DopWindow,
    block_sizes: Tuple[int, ...],
    keep_all: bool,
    strategy: str,
    budget: Optional[Budget] = None,
) -> SearchResult:
    """The brute-force loop (shared by the reference entry point and the
    fallback for constraints without a batch predicate)."""
    total = feasible = 0

    def scored() -> Iterator[ScoredMapping]:
        nonlocal total, feasible
        for mapping in enumerate_candidates(num_levels, cset, block_sizes):
            if budget is not None and not budget.spend():
                raise _BudgetStop()
            total += 1
            score = score_mapping(mapping, cset, sizes_t)
            if score is None:
                continue
            feasible += 1
            yield ScoredMapping(mapping, score, mapping.dop(sizes_t))

    candidates: Iterable[ScoredMapping] = scored()
    all_scored: List[ScoredMapping] = []
    if keep_all:
        all_scored = candidates = list(candidates)
    ranked = heapq.nsmallest(RANKED_CANDIDATES, candidates, key=ranking_key)
    return _finish(
        ranked, cset, sizes_t, window, total, feasible, all_scored, strategy,
    )


def _fallback_result(
    num_levels: int,
    cset: ConstraintSet,
    sizes_t: Tuple[int, ...],
    window: DopWindow,
    reason: str,
    budget: Optional[Budget] = None,
) -> SearchResult:
    """Degrade to the guaranteed-feasible conservative mapping.

    Raises :class:`~repro.errors.SearchError` only when even the fallback
    violates a hard constraint (the exhaustive search would have raised
    the same error).
    """
    from ..resilience.fallback import (
        conservative_fallback_mapping,
        fallback_score,
    )

    mapping = conservative_fallback_mapping(num_levels, cset, sizes_t, window)
    nodes = budget.nodes_spent if budget is not None else 0
    return SearchResult(
        mapping=mapping,
        score=fallback_score(mapping, cset, sizes_t),
        dop=mapping.dop(sizes_t),
        candidates_total=nodes,
        candidates_feasible=0,
        candidates_skipped=nodes,
        strategy="fallback",
        degraded=True,
        degraded_reason=reason,
    )


def _record_search_metrics(result: SearchResult) -> None:
    """Publish one search's telemetry into the metrics registry.

    Consumes :meth:`SearchResult.telemetry` — the same dict the
    ``--explain`` rendering uses — so the counters exist in exactly one
    shape.
    """
    metrics = get_metrics()
    if not metrics.enabled:
        return
    data = result.telemetry()
    metrics.counter("search.runs").inc()
    metrics.counter("search.candidates.total").inc(data["candidates_total"])
    metrics.counter("search.candidates.feasible").inc(
        data["candidates_feasible"]
    )
    metrics.counter("search.candidates.scored").inc(data["candidates_scored"])
    metrics.counter("search.candidates.skipped").inc(
        data["candidates_skipped"]
    )
    metrics.counter(f"search.strategy.{data['strategy']}").inc()
    metrics.histogram("search.elapsed_ms").observe(data["elapsed_ms"])
    if data["batch_shape"] is not None:
        metrics.histogram("search.batch.candidates").observe(
            data["batch_shape"][0]
        )
    if data["degraded"]:
        metrics.counter("resilience.fallback.activations").inc()


def search_mapping_reference(
    num_levels: int,
    cset: ConstraintSet,
    sizes: Sequence[int],
    window: Optional[DopWindow] = None,
    block_sizes: Sequence[int] = BLOCK_SIZE_CANDIDATES,
    keep_all: bool = False,
    budget: Optional[Budget] = None,
) -> SearchResult:
    """Run Algorithm 1 by exhaustive enumeration (the equivalence oracle)."""
    if window is None:
        window = DopWindow()
    block_sizes = _effective_block_sizes(num_levels, block_sizes)
    sizes_t = _validate(num_levels, sizes)
    start = time.perf_counter()
    if budget is not None:
        budget.start()
    with instrumented_stage(
        "search", inject=False, levels=num_levels, mode="reference"
    ):
        try:
            result = _search_exhaustive(
                num_levels, cset, sizes_t, window, block_sizes, keep_all,
                strategy="reference", budget=budget,
            )
        except _BudgetStop:
            result = _fallback_result(
                num_levels, cset, sizes_t, window,
                reason="search budget exhausted (reference enumeration)",
                budget=budget,
            )
    result.elapsed_ms = (time.perf_counter() - start) * 1e3
    _record_search_metrics(result)
    return result


def search_mapping(
    num_levels: int,
    cset: ConstraintSet,
    sizes: Sequence[int],
    window: Optional[DopWindow] = None,
    block_sizes: Sequence[int] = BLOCK_SIZE_CANDIDATES,
    keep_all: bool = False,
    budget: Optional[Budget] = None,
) -> SearchResult:
    """Run Algorithm 1 and return the selected mapping.

    This is the staged pipeline: the vectorized batch engine, or the
    exhaustive loop when a constraint has no batch predicate.  Results
    are byte-identical to :func:`search_mapping_reference` whichever
    engine runs (asserted by
    ``tests/analysis/test_search_equivalence.py`` and
    ``tests/analysis/test_search_engines.py``).

    Args:
        num_levels: nest depth of the kernel.
        cset: constraints from :func:`generate_constraints`.
        sizes: representative domain size per level (analysis hints).
        window: device DOP window for ControlDOP (defaults to K20c's).
        keep_all: retain every feasible candidate with its score
            (needed by the score-vs-performance experiment).
        budget: optional node/deadline budget; on exhaustion the search
            returns the conservative fallback mapping (``degraded=True``)
            instead of raising.
    """
    if window is None:
        window = DopWindow()
    block_sizes = _effective_block_sizes(num_levels, block_sizes)
    sizes_t = _validate(num_levels, sizes)
    start = time.perf_counter()

    with instrumented_stage("search", levels=num_levels) as scope:
        span = scope.span
        fault = scope.fault
        if fault is not None and fault.kind == "deadline":
            # A simulated deadline overrun: the budget expires immediately.
            if budget is None:
                budget = Budget(deadline_s=0.0)
            budget.force_expire()
        if budget is not None:
            budget.start()

        result = _search_engines(
            num_levels, cset, sizes_t, window, block_sizes, keep_all, budget,
        )
        # The one and only elapsed_ms assignment:
        # vectorized, reference-fallback, and budget-degraded paths all
        # flow through here, so a budget-exhausted search reports the
        # true wall time of this call exactly once.
        result.elapsed_ms = (time.perf_counter() - start) * 1e3
        span.set(**result.telemetry())
    _record_search_metrics(result)
    return result


def _search_engines(
    num_levels: int,
    cset: ConstraintSet,
    sizes_t: Tuple[int, ...],
    window: DopWindow,
    block_sizes: Tuple[int, ...],
    keep_all: bool,
    budget: Optional[Budget],
) -> SearchResult:
    """The search body.  Leaves ``elapsed_ms`` unset — the caller
    stamps it once, whichever path produced the result."""
    from .vectorized import BatchUnsupported, _search_vectorized

    if budget is not None and budget.exhausted():
        return _fallback_result(
            num_levels, cset, sizes_t, window,
            reason="search budget exhausted before enumeration",
            budget=budget,
        )
    try:
        try:
            return _search_vectorized(
                num_levels, cset, sizes_t, window, block_sizes, keep_all,
                budget=budget,
            )
        except BatchUnsupported:
            # A constraint without a batch predicate, or one declining at
            # runtime: evaluate every candidate one at a time instead.
            return _search_exhaustive(
                num_levels, cset, sizes_t, window, block_sizes, keep_all,
                strategy="reference-fallback", budget=budget,
            )
    except _BudgetStop:
        return _fallback_result(
            num_levels, cset, sizes_t, window,
            reason=(
                "search budget exhausted after "
                f"{budget.nodes_spent if budget is not None else 0} node(s)"
            ),
            budget=budget,
        )
