"""Human-readable explanations of mapping decisions.

The search returns a winner; this module answers *why*: which soft
constraints the chosen mapping satisfies (and what each contributed to the
score), which it sacrifices, and how the winner compares to the named
baseline strategies.  Exposed through ``python -m repro map --explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import ReproError
from .analyzer import KernelAnalysis
from .constraints import Constraint
from .mapping import Mapping
from .scoring import hard_feasible, score_mapping
from .search import SearchResult
from .strategies import FIXED_STRATEGIES


@dataclass
class ConstraintVerdict:
    """One constraint's outcome under a mapping."""

    description: str
    hard: bool
    satisfied: bool
    weight: float = 0.0


@dataclass
class MappingExplanation:
    """Everything the report renders for one mapping decision."""

    mapping: Mapping
    score: Optional[float]
    max_score: float
    verdicts: List[ConstraintVerdict] = field(default_factory=list)
    #: (strategy name, score or None) comparisons.
    baselines: List[tuple] = field(default_factory=list)
    #: (strategy name, error message) for baselines that failed to build.
    baseline_errors: List[tuple] = field(default_factory=list)
    #: Telemetry from the search that chose this mapping, when available.
    search: Optional[SearchResult] = None

    @property
    def satisfied_weight(self) -> float:
        return sum(
            v.weight for v in self.verdicts if v.satisfied and not v.hard
        )

    @property
    def sacrificed(self) -> List[ConstraintVerdict]:
        return [v for v in self.verdicts if not v.satisfied and not v.hard]

    def render(self) -> str:
        lines = [f"mapping: {self.mapping}"]
        if self.score is None:
            lines.append("INFEASIBLE: violates a hard constraint")
        else:
            pct = (
                100.0 * self.score / self.max_score
                if self.max_score
                else 0.0
            )
            lines.append(
                f"score: {self.score:.4g} of {self.max_score:.4g} "
                f"({pct:.0f}% of attainable weight)"
            )
        lines.append("")
        lines.append("constraints:")
        for v in sorted(
            self.verdicts, key=lambda v: (-v.hard, -v.weight)
        ):
            mark = "ok " if v.satisfied else "MISS" if not v.hard else "VIOLATED"
            kind = "hard" if v.hard else "soft"
            weight = f" (w={v.weight:.3g})" if not v.hard else ""
            lines.append(f"  [{mark:>4}] [{kind}] {v.description}{weight}")
        if self.baselines or self.baseline_errors:
            lines.append("")
            lines.append("baseline strategies at these sizes:")
            for name, score in self.baselines:
                shown = "infeasible" if score is None else f"{score:.4g}"
                lines.append(f"  {name:<22} score {shown}")
            for name, error in self.baseline_errors:
                lines.append(f"  {name:<22} unavailable ({error})")
        if self.search is not None:
            lines.append("")
            lines.append("search telemetry:")
            lines.extend("  " + line for line in render_telemetry(self.search))
        return "\n".join(lines)


def render_telemetry(result: SearchResult) -> List[str]:
    """Human-readable lines for a :class:`SearchResult`'s diagnostics.

    Renders :meth:`SearchResult.telemetry` — the same dict the metrics
    registry and provenance artifacts consume — so the counters have one
    definition across every reporting surface.
    """
    data = result.telemetry()
    lines = [
        f"strategy: {data['strategy']}"
        + (" (served from cache)" if data["cache_hit"] else ""),
        (
            f"candidates: {data['candidates_total']} enumerated, "
            f"{data['candidates_feasible']} feasible"
        ),
        (
            f"work: {data['candidates_scored']} scored, "
            f"{data['candidates_skipped']} skipped"
        ),
        f"wall time: {data['elapsed_ms']:.3g} ms"
        + (" (original search; cache lookup was ~free)"
           if data["cache_hit"] else ""),
    ]
    if data.get("batch_shape"):
        rows, axes = data["batch_shape"]
        lines.insert(2, f"batch: {rows} x {axes} candidate matrix "
                        "(vectorized engine)")
    if data["degraded"]:
        lines.append(f"degraded: {result.degraded_reason}")
    return lines


def explain_mapping(
    analysis: KernelAnalysis,
    mapping: Mapping,
    sizes: Optional[Sequence[int]] = None,
    compare_baselines: bool = True,
    search_result: Optional[SearchResult] = None,
) -> MappingExplanation:
    """Account for a mapping's score constraint by constraint."""
    if sizes is None:
        sizes = analysis.level_sizes()
    sizes_t = tuple(sizes)
    cset = analysis.constraints

    verdicts = [
        ConstraintVerdict(
            description=c.description,
            hard=c.hard,
            satisfied=c.satisfied_by(mapping, sizes_t),
            weight=getattr(c, "weight", 0.0),
        )
        for c in cset.constraints
    ]
    explanation = MappingExplanation(
        mapping=mapping,
        score=score_mapping(mapping, cset, sizes_t),
        max_score=cset.max_score(),
        verdicts=verdicts,
        search=search_result,
    )
    if compare_baselines:
        for name in FIXED_STRATEGIES:
            try:
                baseline = analysis.strategy_mapping(name)
            except ReproError as exc:
                # A fixed strategy can be structurally inapplicable to
                # this kernel (e.g. not enough nest levels); record the
                # reason instead of silently dropping the row, and let
                # anything that is not a pipeline error propagate.
                explanation.baseline_errors.append(
                    (name, f"{type(exc).__name__}: {exc}")
                )
                continue
            explanation.baselines.append(
                (name, score_mapping(baseline, cset, sizes_t))
            )
    return explanation
