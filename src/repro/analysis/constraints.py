"""Constraint model and constraint generation (Section IV-C, Table II).

Constraints are classified on two orthogonal axes:

* **weight**: *hard* constraints must hold for correct execution; *soft*
  constraints are performance hints that add their derived weight to a
  mapping's score when satisfied.
* **scope**: *local* constraints concern a single pattern/level; *global*
  constraints relate multiple patterns or the whole block shape.

Derived weights follow the paper: each soft constraint has an intrinsic
weight (coalescing highest, because pattern workloads are bandwidth-bound)
multiplied by the number of times the associated code executes (the product
of enclosing pattern sizes, with 1000 assumed for unknown sizes) and
discounted by enclosing branch probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import (
    ANALYSIS_CACHE_BYTES,
    INTRINSIC_WEIGHT_BLOCK_FLOOR,
    INTRINSIC_WEIGHT_COALESCE,
    INTRINSIC_WEIGHT_NO_DIVERGENCE,
    MIN_BLOCK_SIZE,
    WARP_SIZE,
)
from .access import AccessSummary
from .mapping import SPAN_CODE_SPANALL, Dim, Mapping, Seq, Span, SpanAll, Split
from .nesting import Nest
from .shapes import SizeEnv


@dataclass(frozen=True)
class Constraint:
    """Base class; ``hard`` and ``scope`` implement Table II's taxonomy."""

    hard: bool
    scope: str  # "local" | "global"
    description: str

    def satisfied_by(self, mapping: Mapping, sizes: Tuple[int, ...]) -> bool:
        raise NotImplementedError

    def batch_satisfied(self, batch) -> Optional["object"]:
        """Vectorized satisfaction over a whole candidate matrix.

        ``batch`` is a :class:`repro.analysis.vectorized.CandidateBatch`
        — integer-coded ``(candidate, level)`` arrays of dims, block
        sizes, and spans for every candidate the search enumerates (all
        levels parallel, spans limited to Span(1)/Span(all)).  The
        return value is a boolean NumPy array of shape ``(len(batch),)``
        that must equal ``[self.satisfied_by(m, batch.sizes) for m in
        candidates]`` element for element — the vectorized engine's
        byte-identical contract rests on that equality, and the engine
        equivalence tests enforce it.

        ``None`` (the base default) means *no batch path*: the search
        falls back to the exhaustive loop, which calls ``satisfied_by``
        per candidate.  Subclasses overriding this promise that the
        predicate agrees with ``satisfied_by`` for search-space
        candidates.
        """
        return None

    #: Declares that :meth:`batch_satisfied` never reads ``batch.spans``.
    #: Candidate spans expand innermost, so the vectorized engine
    #: evaluates span-free predicates on the (permutation, block-size)
    #: base rows — ``span_tile`` times fewer — and broadcasts the column.
    #: The declaration is trusted: a predicate claiming span freedom
    #: while reading spans would silently break the byte-identical
    #: contract (the equivalence suite would catch it).
    batch_span_free = False

    #: The dual declaration: :meth:`batch_satisfied` reads *only*
    #: ``batch.spans`` (plus ``num_levels``/``len``).  The engine then
    #: evaluates the predicate once per span combination — a handful of
    #: rows — and tiles the column across the base pairs.
    batch_base_free = False


@dataclass(frozen=True)
class SpanAllRequired(Constraint):
    """Hard/local: the level must use Span(all) (or a Split refinement).

    ``reason`` distinguishes the paper's two triggers: ``"sync"`` (global
    synchronization, e.g. Reduce) may later be relaxed to ``Split(k)`` with
    a combiner kernel; ``"dynamic"`` (launch-dynamic size) may not.
    """

    level: int = 0
    reason: str = "sync"

    def satisfied_by(self, mapping: Mapping, sizes: Tuple[int, ...]) -> bool:
        if self.level >= mapping.num_levels:
            return False
        span = mapping.level(self.level).span
        if isinstance(span, (SpanAll, Seq)):
            return True
        if isinstance(span, Split):
            return self.reason == "sync"
        return False

    @property
    def splittable(self) -> bool:
        return self.reason == "sync"

    batch_base_free = True

    def batch_satisfied(self, batch):
        import numpy as np

        if self.level >= batch.num_levels:
            return np.zeros(len(batch), dtype=bool)
        # Search candidates only carry Span(1)/Span(all): the Seq and
        # Split branches of satisfied_by are unreachable here.
        return batch.spans[:, self.level] == SPAN_CODE_SPANALL


@dataclass(frozen=True)
class CoalesceDimX(Constraint):
    """Soft/local: assign the level to dim x with a warp-multiple block.

    Generated for every level in which some access has unit stride; when
    satisfied, adjacent threads issue adjacent memory requests and the
    hardware coalesces them (the paper's highest-weighted hint).
    """

    level: int = 0
    weight: float = 0.0
    array_key: str = ""

    def satisfied_by(self, mapping: Mapping, sizes: Tuple[int, ...]) -> bool:
        if self.level >= mapping.num_levels:
            return False
        lm = mapping.level(self.level)
        if not lm.parallel:
            return False
        return lm.dim == Dim.X and lm.block_size % WARP_SIZE == 0

    batch_span_free = True

    def batch_satisfied(self, batch):
        import numpy as np

        if self.level >= batch.num_levels:
            return np.zeros(len(batch), dtype=bool)
        return (batch.dims[:, self.level] == int(Dim.X)) & (
            batch.block_sizes[:, self.level] % WARP_SIZE == 0
        )


@dataclass(frozen=True)
class AvoidDivergence(Constraint):
    """Soft/local: branch conditions should be warp-uniform.

    A condition depending on an index that differs between the lanes of a
    warp makes the warp execute both paths (Table II's "avoid thread
    divergence" family).  Satisfied when none of the condition's index
    dependencies vary within a warp under the mapping.
    """

    levels: Tuple[int, ...] = ()
    weight: float = 0.0

    def satisfied_by(self, mapping: Mapping, sizes: Tuple[int, ...]) -> bool:
        return not any(
            level < mapping.num_levels
            and mapping.varies_within_warp(level, WARP_SIZE)
            for level in self.levels
        )

    batch_span_free = True

    def batch_satisfied(self, batch):
        import numpy as np

        out = np.ones(len(batch), dtype=bool)
        for level in self.levels:
            if level < batch.num_levels:
                out &= ~batch.warp_varies(level)
        return out


@dataclass(frozen=True)
class BlockSizeFloor(Constraint):
    """Soft/global: total threads per block should be at least 64."""

    weight: float = 0.0

    def satisfied_by(self, mapping: Mapping, sizes: Tuple[int, ...]) -> bool:
        return mapping.threads_per_block() >= MIN_BLOCK_SIZE

    batch_span_free = True

    def batch_satisfied(self, batch):
        return batch.threads_per_block >= MIN_BLOCK_SIZE


@dataclass(frozen=True)
class NoWastedThreads(Constraint):
    """Soft/local: a level's block size should not exceed its domain.

    Oversized blocks guarantee idle threads in every block; a mild
    divergence-avoidance hint.
    """

    level: int = 0
    weight: float = 0.0

    def satisfied_by(self, mapping: Mapping, sizes: Tuple[int, ...]) -> bool:
        if self.level >= mapping.num_levels:
            return False
        lm = mapping.level(self.level)
        if not lm.parallel:
            return True
        size = sizes[self.level] if self.level < len(sizes) else 1
        return lm.block_size <= max(1, size)

    batch_span_free = True

    def batch_satisfied(self, batch):
        import numpy as np

        if self.level >= batch.num_levels:
            return np.zeros(len(batch), dtype=bool)
        sizes = batch.sizes
        size = sizes[self.level] if self.level < len(sizes) else 1
        return batch.block_sizes[:, self.level] <= max(1, size)


def has_batch_predicate(constraint: Constraint) -> bool:
    """Does this constraint carry a vectorized batch path?

    Resolution is by method identity: a subclass that overrides
    ``satisfied_by`` without also overriding ``batch_satisfied`` is
    declaring that the inherited batch predicate still holds.  The
    search runs the vectorized engine only when every constraint of a
    set answers True here.
    """
    return type(constraint).batch_satisfied is not Constraint.batch_satisfied


@dataclass
class ConstraintSet:
    """All constraints for one kernel, with convenience accessors."""

    constraints: List[Constraint] = field(default_factory=list)

    def add(self, constraint: Constraint) -> None:
        self.constraints.append(constraint)

    @property
    def hard(self) -> List[Constraint]:
        return [c for c in self.constraints if c.hard]

    @property
    def soft(self) -> List[Constraint]:
        return [c for c in self.constraints if not c.hard]

    def span_all_levels(self) -> Dict[int, bool]:
        """Levels that must be Span(all), mapped to splittability."""
        result: Dict[int, bool] = {}
        for c in self.constraints:
            if isinstance(c, SpanAllRequired):
                # A level is splittable only if *every* reason allows it.
                result[c.level] = result.get(c.level, True) and c.splittable
        return result

    def max_score(self) -> float:
        return sum(getattr(c, "weight", 0.0) for c in self.soft)

    def describe(self) -> str:
        lines = []
        for c in self.constraints:
            kind = "hard" if c.hard else "soft"
            weight = getattr(c, "weight", None)
            suffix = f" (w={weight:.3g})" if weight is not None else ""
            lines.append(f"[{kind}/{c.scope}] {c.description}{suffix}")
        return "\n".join(lines)


def _collect_branches(nest: Nest, env: SizeEnv):
    """Yield (dep levels, execution count) per branch condition in the nest.

    A branch's dependency set is the enclosing pattern levels whose indices
    appear in its condition; the count is the number of times the branch
    executes (product of enclosing sizes, discounted like access weights).
    """
    from ..ir.expr import If, Select
    from ..ir.patterns import PatternExpr
    from .access import index_vars_in
    from .shapes import eval_size

    results = []

    def visit(node, stack):
        if isinstance(node, PatternExpr):
            inner = stack + (node,)
            for child in node.body_nodes():
                visit(child, inner)
            return
        if isinstance(node, (If, Select)):
            names = {p.index.name: lvl for lvl, p in enumerate(stack)}
            deps = index_vars_in(node.cond, frozenset(names))
            levels = frozenset(
                names[name] for name in deps if name in names
            )
            count = 1.0
            for p in stack:
                count *= max(1, int(eval_size(p.size, env)))
            results.append((levels, count))
        for child in node.children():
            visit(child, stack)

    visit(nest.root, ())
    return results


def generate_constraints(
    nest: Nest,
    accesses: AccessSummary,
    env: Optional[SizeEnv] = None,
) -> ConstraintSet:
    """Derive the constraint set for one kernel nest.

    This is the IR-traversal step of Section IV-C: hard Span(all)
    requirements from pattern types and launch-dynamic sizes, plus soft
    coalescing/block-shape hints weighted by execution counts.
    """
    if env is None:
        env = SizeEnv()
    cset = ConstraintSet()

    # Hard/local + the paper's hard/global "most conservative span per
    # level" rule, applied level-wide.
    for level_info in nest.levels:
        for pinfo in level_info.patterns:
            if pinfo.needs_sync:
                cset.add(
                    SpanAllRequired(
                        hard=True,
                        scope="local",
                        description=(
                            f"level {pinfo.level}: "
                            f"{type(pinfo.pattern).__name__} requires global "
                            "synchronization -> Span(all)"
                        ),
                        level=pinfo.level,
                        reason="sync",
                    )
                )
            if pinfo.launch_dynamic:
                cset.add(
                    SpanAllRequired(
                        hard=True,
                        scope="local",
                        description=(
                            f"level {pinfo.level}: size unknown at launch "
                            "-> Span(all)"
                        ),
                        level=pinfo.level,
                        reason="dynamic",
                    )
                )

    # Soft/local coalescing hints, merged per (level, array).
    coalesce_weights: Dict[Tuple[int, str], float] = {}
    for site in accesses.sites:
        if site.flexible_layout:
            # Preallocated intermediates get their layout *after* the
            # mapping decision (Section V-A), so they impose nothing here.
            continue
        count = site.exec_count(env)
        # Arrays whose footprint fits in cache are cheap to re-read
        # regardless of coalescing; discount them so the genuinely
        # bandwidth-bound accesses dominate the decision.
        footprint = site.footprint_bytes(env)
        cache_factor = min(1.0, footprint / ANALYSIS_CACHE_BYTES)
        for level in site.sequential_levels():
            key = (level, site.array_key)
            coalesce_weights[key] = (
                coalesce_weights.get(key, 0.0)
                + INTRINSIC_WEIGHT_COALESCE * count * cache_factor
            )
    for (level, array_key), weight in sorted(coalesce_weights.items()):
        cset.add(
            CoalesceDimX(
                hard=False,
                scope="local",
                description=(
                    f"level {level}: sequential accesses to {array_key!r} "
                    "-> dim x, block multiple of warp"
                ),
                level=level,
                weight=weight,
                array_key=array_key,
            )
        )

    # Soft/local divergence hints: one per distinct branch-dependency set.
    divergence_weights: Dict[Tuple[int, ...], float] = {}
    for dep_levels, count in _collect_branches(nest, env):
        if not dep_levels:
            continue
        key = tuple(sorted(dep_levels))
        divergence_weights[key] = (
            divergence_weights.get(key, 0.0)
            + INTRINSIC_WEIGHT_NO_DIVERGENCE * count
        )
    for levels, weight in sorted(divergence_weights.items()):
        cset.add(
            AvoidDivergence(
                hard=False,
                scope="local",
                description=(
                    f"branch condition depends on level(s) "
                    f"{list(levels)} -> keep them warp-uniform"
                ),
                levels=levels,
                weight=weight,
            )
        )

    total_iterations = 1.0
    for level_info in nest.levels:
        total_iterations *= max(1, level_info.size)

    # Soft/global block-size floor.
    cset.add(
        BlockSizeFloor(
            hard=False,
            scope="global",
            description=f"threads per block >= {MIN_BLOCK_SIZE}",
            weight=INTRINSIC_WEIGHT_BLOCK_FLOOR * total_iterations,
        )
    )

    # Soft/local thread-waste hints.
    for level_info in nest.levels:
        cset.add(
            NoWastedThreads(
                hard=False,
                scope="local",
                description=(
                    f"level {level_info.level}: block size <= domain size"
                ),
                level=level_info.level,
                weight=INTRINSIC_WEIGHT_NO_DIVERGENCE * total_iterations,
            )
        )

    return cset
