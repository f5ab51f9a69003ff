"""Mapping scoring against a constraint set (Section IV-C/D).

A candidate mapping's score is the sum of the derived weights of the soft
constraints it satisfies; mappings violating any hard constraint score
``None`` (infeasible).  Scores are also what Figure 17 plots against
simulated performance.

Two performance notes, load-bearing for the staged search:

* scores are combined with :func:`math.fsum`, so they are exact and
  independent of summation order — the table-driven search accumulates
  the same weights in a different order and must land on the identical
  float;
* ``sizes`` is expected to be a tuple; callers that loop over candidates
  hoist the conversion out of the loop (a per-candidate ``tuple(sizes)``
  used to dominate the reference path's allocation profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .constraints import Constraint, ConstraintSet
from .mapping import Mapping


@dataclass(frozen=True)
class ScoredMapping:
    """A mapping together with its score and DOP at analysis sizes."""

    mapping: Mapping
    score: float
    dop: int


def _as_tuple(sizes: Sequence[int]) -> Tuple[int, ...]:
    # Callers should pass tuples (hoisted out of candidate loops); this
    # guard keeps ad-hoc list callers working without re-allocating for
    # the common tuple case.
    return sizes if isinstance(sizes, tuple) else tuple(sizes)


def hard_feasible(
    mapping: Mapping, cset: ConstraintSet, sizes: Sequence[int]
) -> bool:
    """Does the mapping satisfy every hard constraint?"""
    sizes_t = _as_tuple(sizes)
    return all(c.satisfied_by(mapping, sizes_t) for c in cset.hard)


def score_mapping(
    mapping: Mapping, cset: ConstraintSet, sizes: Sequence[int]
) -> Optional[float]:
    """Score a mapping; ``None`` when a hard constraint is violated."""
    sizes_t = _as_tuple(sizes)
    if not hard_feasible(mapping, cset, sizes_t):
        return None
    return math.fsum(
        getattr(c, "weight", 0.0)
        for c in cset.soft
        if c.satisfied_by(mapping, sizes_t)
    )


def satisfied_constraints(
    mapping: Mapping, cset: ConstraintSet, sizes: Sequence[int]
) -> List[Constraint]:
    """The soft constraints a mapping satisfies (diagnostics, Fig. 17)."""
    sizes_t = _as_tuple(sizes)
    return [c for c in cset.soft if c.satisfied_by(mapping, sizes_t)]
