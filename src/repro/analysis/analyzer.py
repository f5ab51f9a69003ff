"""End-to-end analysis facade: program -> per-kernel mapping decisions.

This ties the pipeline of Section IV together:

1. canonicalize each kernel nest (scalar let-inlining),
2. extract the level structure (:mod:`nesting`),
3. collect access sites (:mod:`access`),
4. generate constraints (:mod:`constraints`),
5. search for the best mapping and control DOP (:mod:`search`, :mod:`dop`).

The result objects carry every intermediate so the optimizers, code
generator, and cost model all work from the same facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import AnalysisError
from ..ir.patterns import PatternExpr, Program, Reduce
from ..observability import get_metrics, get_tracer
from .access import AccessSummary, collect_accesses, inline_scalar_binds
from .constraints import ConstraintSet, generate_constraints
from .dop import DopWindow
from .mapping import Mapping, Split
from .nesting import Nest, build_nest, outermost_patterns
from .search import SearchResult, search_mapping
from .shapes import SizeEnv
from .strategies import fixed_strategy


@dataclass
class KernelAnalysis:
    """Everything the later stages need to know about one kernel."""

    root: PatternExpr  # canonicalized nest
    original_root: PatternExpr
    nest: Nest
    accesses: AccessSummary
    constraints: ConstraintSet
    env: SizeEnv

    @property
    def depth(self) -> int:
        return self.nest.depth

    def level_sizes(self) -> List[int]:
        return self.nest.level_sizes()

    def select_mapping(
        self,
        window: Optional[DopWindow] = None,
        keep_all: bool = False,
        budget=None,
    ) -> SearchResult:
        """Run the Algorithm-1 search for this kernel (MultiDim strategy).

        ``budget`` bounds the walk; on exhaustion the result degrades to
        the conservative fallback mapping.
        """
        return search_mapping(
            self.depth,
            self.constraints,
            self.level_sizes(),
            window=window,
            keep_all=keep_all,
            budget=budget,
        )

    def strategy_mapping(self, name: str) -> Mapping:
        """Instantiate a fixed baseline strategy for this kernel's nest."""
        return fixed_strategy(name, self.level_sizes())

    def needs_combiner(self, mapping: Mapping) -> int:
        """The combiner rule, read by the cost model, the host driver and
        the differential oracle: the ``k`` of a ``Split(k)`` level holding
        a ``Reduce`` (its partials need a combiner kernel, Section IV-E),
        else 0.  Filter/GroupBy sync through atomics; a split Map level
        just chunks the domain."""
        for level_info, lm in zip(self.nest.levels, mapping.levels):
            if isinstance(lm.span, Split) and any(
                isinstance(p.pattern, Reduce) for p in level_info.patterns
            ):
                return lm.span.k
        return 0


@dataclass
class ProgramAnalysis:
    """Per-kernel analyses for a whole program, in kernel order."""

    program: Program
    kernels: List[KernelAnalysis] = field(default_factory=list)
    env: SizeEnv = field(default_factory=SizeEnv)

    def kernel(self, index: int = 0) -> KernelAnalysis:
        return self.kernels[index]

    def __len__(self) -> int:
        return len(self.kernels)


def _record_constraint_metrics(cset: ConstraintSet) -> None:
    """Count constraints by the Table-II taxonomy (Hard/Soft x scope)."""
    metrics = get_metrics()
    if not metrics.enabled:
        return
    for c in cset.constraints:
        kind = "hard" if c.hard else "soft"
        metrics.counter(f"constraints.{kind}.{c.scope}").inc()


def analyze_kernel(root: PatternExpr, env: Optional[SizeEnv] = None) -> KernelAnalysis:
    """Analyze one kernel nest end to end (canonicalize, nest, accesses,
    constraints)."""
    if env is None:
        env = SizeEnv()
    canonical = inline_scalar_binds(root)
    nest = build_nest(canonical, env)
    accesses = collect_accesses(canonical, env, inline=False)
    with get_tracer().span("constraints", depth=nest.depth) as span:
        cset = generate_constraints(nest, accesses, env)
        span.set(count=len(cset.constraints))
    _record_constraint_metrics(cset)
    return KernelAnalysis(
        root=canonical,
        original_root=root,
        nest=nest,
        accesses=accesses,
        constraints=cset,
        env=env,
    )


def analyze_program(program: Program, **size_overrides: int) -> ProgramAnalysis:
    """Analyze every kernel of a program under its size hints.

    Keyword overrides update the program's declared size hints, which is
    how the benchmark harness sweeps input shapes without rebuilding IR.
    """
    from ..observability import instrumented_stage

    with instrumented_stage("analysis", program=program.name) as scope:
        span = scope.span
        env = SizeEnv.for_program(program, **size_overrides)
        roots = outermost_patterns(program.result)
        if not roots:
            raise AnalysisError(
                f"program {program.name} has no parallel patterns"
            )
        kernels = [analyze_kernel(root, env) for root in roots]
        span.set(kernels=len(kernels))
    return ProgramAnalysis(program=program, kernels=kernels, env=env)
