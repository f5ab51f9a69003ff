"""Mapping-provenance records: *why this mapping won*, as an artifact.

A :class:`CompileProvenance` captures, for every kernel of a compile, the
chosen mapping, the search telemetry, and the top 5 ranked candidates
with per-constraint verdicts and score deltas.  Serialized to JSON it
lets ``repro explain <artifact>`` render the full rationale from a saved
file instead of re-running the search.  :meth:`KernelProvenance.render`
is the one printed rationale: ``repro map --explain`` and
:meth:`~repro.runtime.session.CompiledProgram.report` print it too.

The record is built from the compile's own records and runs no search:
the candidates are the :attr:`~repro.analysis.search.SearchResult.ranked`
list of the search that chose the mapping, so provenance always
describes the decision the compile actually made.  It is built on first
request through
:meth:`~repro.runtime.session.CompiledProgram.provenance` and cached.

This module is imported lazily by the session and the CLI (never from
``repro.observability.__init__``) so the tracer/metrics hot path stays
free of analysis-layer imports.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError

#: Bumped on any incompatible artifact change; the loader checks it.
PROVENANCE_VERSION = 1


@dataclass
class VerdictRecord:
    """One constraint's outcome under one candidate mapping."""

    description: str
    hard: bool
    scope: str
    satisfied: bool
    weight: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "description": self.description,
            "hard": self.hard,
            "scope": self.scope,
            "satisfied": self.satisfied,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerdictRecord":
        return cls(
            description=data["description"],
            hard=bool(data["hard"]),
            scope=data.get("scope", "local"),
            satisfied=bool(data["satisfied"]),
            weight=float(data.get("weight", 0.0)),
        )

    def render(self) -> str:
        mark = "ok " if self.satisfied else ("VIOLATED" if self.hard else "MISS")
        kind = "hard" if self.hard else "soft"
        weight = "" if self.hard else f" (w={self.weight:.3g})"
        return f"[{mark:>4}] [{kind}/{self.scope}] {self.description}{weight}"


@dataclass
class CandidateRecord:
    """One ranked candidate from the search space."""

    rank: int
    mapping: str
    score: float
    dop: int
    #: Winning score minus this candidate's score (0 for the leader).
    score_delta: float
    verdicts: List[VerdictRecord] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "mapping": self.mapping,
            "score": self.score,
            "dop": self.dop,
            "score_delta": self.score_delta,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CandidateRecord":
        return cls(
            rank=int(data["rank"]),
            mapping=data["mapping"],
            score=float(data["score"]),
            dop=int(data["dop"]),
            score_delta=float(data["score_delta"]),
            verdicts=[
                VerdictRecord.from_dict(v) for v in data.get("verdicts", [])
            ],
        )


@dataclass
class KernelProvenance:
    """The full mapping rationale for one kernel."""

    index: int
    depth: int
    level_sizes: List[int]
    mapping: str
    score: Optional[float]
    max_score: float
    dop: Optional[int] = None
    #: :meth:`SearchResult.telemetry` of the search that decided, if any.
    search: Optional[Dict[str, Any]] = None
    #: Verdicts of the *chosen* (post-ControlDOP) mapping.
    verdicts: List[VerdictRecord] = field(default_factory=list)
    #: The top 5 ranked candidates of the search that decided.
    candidates: List[CandidateRecord] = field(default_factory=list)
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "depth": self.depth,
            "level_sizes": list(self.level_sizes),
            "mapping": self.mapping,
            "score": self.score,
            "max_score": self.max_score,
            "dop": self.dop,
            "search": self.search,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "candidates": [c.to_dict() for c in self.candidates],
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KernelProvenance":
        return cls(
            index=int(data["index"]),
            depth=int(data["depth"]),
            level_sizes=[int(s) for s in data.get("level_sizes", [])],
            mapping=data["mapping"],
            score=data.get("score"),
            max_score=float(data.get("max_score", 0.0)),
            dop=data.get("dop"),
            search=data.get("search"),
            verdicts=[
                VerdictRecord.from_dict(v) for v in data.get("verdicts", [])
            ],
            candidates=[
                CandidateRecord.from_dict(c)
                for c in data.get("candidates", [])
            ],
            note=data.get("note", ""),
        )

    def render(self) -> str:
        lines = [
            f"## Kernel {self.index} (depth {self.depth}, "
            f"sizes {self.level_sizes})",
            f"winner: {self.mapping}",
        ]
        if self.score is not None:
            pct = 100.0 * self.score / self.max_score if self.max_score else 0.0
            lines.append(
                f"score: {self.score:.4g} of {self.max_score:.4g} "
                f"({pct:.0f}% of attainable weight)"
                + (f", dop {self.dop}" if self.dop is not None else "")
            )
        if self.note:
            lines.append(f"note: {self.note}")
        if self.search:
            lines.append("search telemetry:")
            lines.extend("  " + line for line in _telemetry_lines(self.search))
        if self.verdicts:
            lines.append("constraints under the winner:")
            for verdict in sorted(
                self.verdicts, key=lambda v: (-v.hard, -v.weight)
            ):
                lines.append("  " + verdict.render())
        if self.candidates:
            lines.append(f"top {len(self.candidates)} candidates:")
            for cand in self.candidates:
                lines.append(
                    f"  #{cand.rank} score {cand.score:.4g} "
                    f"(delta {cand.score_delta:.4g}) dop {cand.dop}  "
                    f"{cand.mapping}"
                )
                missed = [
                    v for v in cand.verdicts if not v.satisfied and not v.hard
                ]
                if missed:
                    lines.append(
                        "      sacrifices: "
                        + "; ".join(
                            f"{v.description} (w={v.weight:.3g})"
                            for v in missed
                        )
                    )
        return "\n".join(lines)


def _telemetry_lines(data: Dict[str, Any]) -> List[str]:
    """Human-readable lines for a :meth:`SearchResult.telemetry` dict."""
    cached = bool(data.get("cache_hit"))
    lines = [
        f"strategy: {data.get('strategy')}"
        + (" (served from cache)" if cached else ""),
        (
            f"candidates: {data.get('candidates_total')} enumerated, "
            f"{data.get('candidates_feasible')} feasible"
        ),
        (
            f"work: {data.get('candidates_scored')} scored, "
            f"{data.get('candidates_skipped')} skipped"
        ),
        f"wall time: {data.get('elapsed_ms', 0.0):.3g} ms"
        + (" (original search; cache lookup was ~free)" if cached else ""),
    ]
    if data.get("batch_shape"):
        rows, axes = data["batch_shape"]
        lines.insert(
            2, f"batch: {rows} x {axes} candidate matrix (vectorized engine)"
        )
    return lines


@dataclass
class CompileProvenance:
    """Provenance of one whole compile, serializable as a JSON artifact."""

    program: str
    device: str
    strategy: str
    sizes: Dict[str, int] = field(default_factory=dict)
    degradations: List[str] = field(default_factory=list)
    kernels: List[KernelProvenance] = field(default_factory=list)
    #: Content digest of the transformation recipe that built the plans
    #: (degraded kernels appear in it as marker entries).
    recipe_digest: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": PROVENANCE_VERSION,
            "program": self.program,
            "device": self.device,
            "strategy": self.strategy,
            "sizes": dict(self.sizes),
            "degradations": list(self.degradations),
            "kernels": [k.to_dict() for k in self.kernels],
            "recipe_digest": self.recipe_digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompileProvenance":
        version = data.get("version")
        if version != PROVENANCE_VERSION:
            raise ReproError(
                f"provenance artifact version {version!r} is not supported "
                f"(expected {PROVENANCE_VERSION})"
            )
        return cls(
            program=data["program"],
            device=data.get("device", ""),
            strategy=data.get("strategy", ""),
            sizes={k: int(v) for k, v in (data.get("sizes") or {}).items()},
            degradations=list(data.get("degradations") or []),
            kernels=[
                KernelProvenance.from_dict(k) for k in data.get("kernels", [])
            ],
            recipe_digest=data.get("recipe_digest"),
        )

    def write(self, path: str) -> str:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path

    def render(self) -> str:
        lines = [
            f"# Mapping provenance: {self.program}",
            f"device: {self.device}   strategy: {self.strategy}",
        ]
        if self.sizes:
            bindings = ", ".join(
                f"{k}={v}" for k, v in sorted(self.sizes.items())
            )
            lines.append(f"sizes: {bindings}")
        if self.recipe_digest:
            lines.append(f"recipe: {self.recipe_digest}")
        for note in self.degradations:
            lines.append(f"degraded: {note}")
        for kernel in self.kernels:
            lines.append("")
            lines.append(kernel.render())
        return "\n".join(lines)


def load_provenance(path: str) -> CompileProvenance:
    with open(path) as handle:
        return CompileProvenance.from_dict(json.load(handle))


# -- construction ----------------------------------------------------------


def _verdicts(cset, mapping, sizes_t: Tuple[int, ...]) -> List[VerdictRecord]:
    return [
        VerdictRecord(
            description=c.description,
            hard=c.hard,
            scope=c.scope,
            satisfied=c.satisfied_by(mapping, sizes_t),
            weight=getattr(c, "weight", 0.0),
        )
        for c in cset.constraints
    ]


def kernel_provenance(decision, index: int, strategy) -> KernelProvenance:
    """Build the provenance record for one kernel decision."""
    from ..analysis.scoring import score_mapping

    ka = decision.analysis
    cset = ka.constraints
    sizes_t = tuple(ka.level_sizes())
    score = decision.score
    if score is None:
        score = score_mapping(decision.mapping, cset, sizes_t)
    search = decision.search

    record = KernelProvenance(
        index=index,
        depth=ka.depth,
        level_sizes=list(ka.level_sizes()),
        mapping=str(decision.mapping),
        score=score,
        max_score=cset.max_score(),
        dop=decision.mapping.dop(sizes_t),
        search=search.telemetry() if search is not None else None,
        verdicts=_verdicts(cset, decision.mapping, sizes_t),
    )

    if strategy != "multidim":
        record.note = (
            f"fixed strategy {strategy!r}: mapping chosen structurally, "
            "no candidate search ran"
        )
        return record
    if search is None:
        record.note = (
            "mapping search failed; the conservative fallback mapping was "
            "substituted and no candidate ranking exists"
        )
        return record
    if search.degraded:
        record.note = (
            "search degraded to the conservative fallback mapping; "
            "candidate ranking unavailable "
            f"({search.degraded_reason})"
        )
        return record

    ranked = search.ranked
    record.candidates = [
        CandidateRecord(
            rank=rank,
            mapping=str(sm.mapping),
            score=sm.score,
            dop=sm.dop,
            score_delta=ranked[0].score - sm.score,
            verdicts=_verdicts(cset, sm.mapping, sizes_t),
        )
        for rank, sm in enumerate(ranked, 1)
    ]
    return record


def build_provenance(compiled) -> CompileProvenance:
    """Assemble the provenance record for a compiled program."""
    return CompileProvenance(
        program=compiled.program.name,
        device=compiled.device.name,
        strategy=str(compiled.strategy),
        sizes=dict(compiled.size_hints),
        degradations=list(compiled.degradations),
        kernels=[
            kernel_provenance(decision, index, compiled.strategy)
            for index, decision in enumerate(compiled.decisions)
        ],
        recipe_digest=compiled.recipe().content_digest(),
    )
