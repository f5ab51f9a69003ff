"""Fixed mapping strategies from prior work, expressed in our parameters.

Figure 7 of the paper shows that previous strategies are points in its
mapping space:

* **1D mapping** — parallelize only the outermost pattern (Thrust, Firepile,
  Nikola).  Inner levels run sequentially inside each thread.
* **thread-block/thread** — outer iterations to blocks, inner iterations to
  the threads of a block (Copperhead).
* **warp-based** — outer iterations to warps (block-size-16 groups along y),
  inner iterations to the 32 threads of a warp (Hong et al.).

These are *restricted parameter assignments*, not separate code paths —
which is exactly the paper's coverage claim.  The benchmark harness selects
them by name to produce the comparison figures.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..config import MAX_BLOCK_SIZE, WARP_SIZE
from ..errors import MappingError
from .constraints import ConstraintSet
from .mapping import Dim, LevelMapping, Mapping, Span, SpanAll, Split, seq_level
from .scoring import score_mapping


def one_d(sizes: Sequence[int], block_size: int = 256) -> Mapping:
    """Parallelize only level 0; deeper levels are sequential per thread."""
    if not sizes:
        raise MappingError("need at least one level")
    levels = [LevelMapping(Dim.X, block_size, Span(1))]
    levels.extend(seq_level() for _ in sizes[1:])
    return Mapping(tuple(levels))


def thread_block_thread(sizes: Sequence[int]) -> Mapping:
    """Copperhead's strategy: outer -> thread blocks, inner -> threads.

    Equivalent parameters (Fig. 7a): level 0 ``[DimY, 1, Span(1)]``,
    level 1 ``[DimX, min(J, 1024) rounded to a block size, Span(all)]``.
    Only two levels of parallelism are exploitable; deeper levels run
    sequentially.
    """
    if len(sizes) < 2:
        # A flat pattern leaves nothing for the inner dimension; the
        # strategy degenerates to the 1D mapping.
        return one_d(sizes)
    inner = _clamp_block(sizes[1], MAX_BLOCK_SIZE)
    levels = [
        LevelMapping(Dim.Y, 1, Span(1)),
        LevelMapping(Dim.X, inner, SpanAll()),
    ]
    levels.extend(seq_level() for _ in sizes[2:])
    return Mapping(tuple(levels))


def warp_based(sizes: Sequence[int]) -> Mapping:
    """Hong et al.'s strategy: outer -> warps, inner -> threads in a warp.

    Equivalent parameters (Fig. 7b): level 0 ``[DimY, 16, Span(1)]``,
    level 1 ``[DimX, 32, Span(all)]`` — 16 chosen so a block holds enough
    total threads (16 warps of 32 = 512 threads/block).
    """
    if len(sizes) < 2:
        return one_d(sizes)
    levels = [
        LevelMapping(Dim.Y, 16, Span(1)),
        LevelMapping(Dim.X, WARP_SIZE, SpanAll()),
    ]
    levels.extend(seq_level() for _ in sizes[2:])
    return Mapping(tuple(levels))


def split_forcing(
    sizes: Sequence[int], level: int, k: int = 2, block_size: int = 64
) -> Mapping:
    """A mapping that forces ``Split(k)`` degree reduction at one level.

    The differential-testing oracle uses this to exercise the combiner-kernel
    code path deliberately: level ``level`` gets ``[DimX, block_size,
    Split(k)]`` while level 0 (when distinct) keeps a block-spanning
    ``[DimY, 1, Span(1)]`` assignment and every other level runs
    sequentially.  The caller is responsible for picking a level whose
    hard constraints are splittable (``SpanAllRequired.splittable``).
    """
    if not sizes:
        raise MappingError("need at least one level")
    if not 0 <= level < len(sizes):
        raise MappingError(f"split level {level} out of range for {len(sizes)} levels")
    levels = []
    for i in range(len(sizes)):
        if i == level:
            levels.append(LevelMapping(Dim.X, block_size, Split(k)))
        elif i == 0:
            levels.append(LevelMapping(Dim.Y, 1, Span(1)))
        else:
            levels.append(seq_level())
    return Mapping(tuple(levels))


def _clamp_block(size: int, limit: int) -> int:
    """Round a domain size down to a power-of-two block size within limits."""
    clamped = max(1, min(size, limit))
    return 1 << (clamped.bit_length() - 1)


#: Strategy registry used by the benchmark harness.
FIXED_STRATEGIES: Dict[str, Callable[[Sequence[int]], Mapping]] = {
    "1d": one_d,
    "thread-block/thread": thread_block_thread,
    "warp-based": warp_based,
}


def baseline_scores(
    cset: ConstraintSet, sizes: Sequence[int]
) -> Dict[str, Optional[float]]:
    """Each fixed strategy's score under ``cset`` at ``sizes`` (None when
    its mapping violates a hard constraint).

    What ``repro map --explain`` and compilation reports compare a
    decision against; no artifact stores these scores.
    """
    sizes_t = tuple(sizes)
    return {
        name: score_mapping(factory(sizes_t), cset, sizes_t)
        for name, factory in FIXED_STRATEGIES.items()
    }


def render_baseline_scores(cset: ConstraintSet, sizes: Sequence[int]) -> str:
    """The :func:`baseline_scores` table as printed under a rationale."""
    lines = ["baseline strategies at these sizes:"]
    for name, score in baseline_scores(cset, sizes).items():
        shown = "infeasible" if score is None else f"{score:.4g}"
        lines.append(f"  {name:<22} score {shown}")
    return "\n".join(lines)


def fixed_strategy(name: str, sizes: Sequence[int]) -> Mapping:
    """Look up and instantiate a fixed strategy by name."""
    try:
        factory = FIXED_STRATEGIES[name]
    except KeyError:
        raise MappingError(
            f"unknown strategy {name!r}; known: {sorted(FIXED_STRATEGIES)}"
        )
    return factory(sizes)
