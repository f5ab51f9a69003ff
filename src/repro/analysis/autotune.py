"""Cost-model-driven auto-tuning over the mapping space.

The paper closes by noting that its mapping parameters "can be used by
other compilers or auto-tuners to explore the mapping space", and that
integrating an analytical GPU performance model is future work (the
Figure 17 false negatives are the price of fixed intrinsic weights).  This
module implements both extensions: instead of scoring candidates with the
constraint weights, it prices every hard-feasible candidate with the full
simulator and picks the fastest — a measurement-driven auto-tuner whose
"measurements" are the analytic model.

The trade-off is compile time: the cost model is ~100x more expensive per
candidate than the constraint score, which is exactly why the paper's
design uses cheap scores plus ControlDOP.  The ablation benchmark
(`benchmarks/bench_ablation_autotune.py`) quantifies what the cheap score
leaves on the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..config import BLOCK_SIZE_CANDIDATES
from ..errors import ReproError, SearchError
from ..resilience.budget import Budget
from .analyzer import KernelAnalysis
from .dop import DopWindow, control_dop
from .mapping import Mapping
from .scoring import hard_feasible
from .search import enumerate_candidates
from .shapes import SizeEnv
from .vectorized import BatchUnsupported, iter_feasible_mappings


@dataclass
class AutotuneResult:
    """The simulator-optimal mapping plus the explored frontier."""

    mapping: Mapping
    time_us: float
    candidates: int
    #: (mapping, time) pairs, fastest first, truncated to ``keep_top``.
    frontier: List[Tuple[Mapping, float]] = field(default_factory=list)
    #: Candidates whose modeled cost was NaN/Inf (dropped, never chosen).
    rejected_nonfinite: int = 0
    #: True when the tuner stopped early (budget) and returned its
    #: best-so-far, or degraded to the conservative fallback mapping.
    degraded: bool = False
    degraded_reason: str = ""


def autotune_mapping(
    analysis: KernelAnalysis,
    device,
    env: Optional[SizeEnv] = None,
    window: Optional[DopWindow] = None,
    block_sizes: Sequence[int] = BLOCK_SIZE_CANDIDATES,
    keep_top: int = 10,
    budget: Optional[Budget] = None,
) -> AutotuneResult:
    """Pick the mapping the cost model likes best.

    Every candidate satisfying the hard constraints is priced with
    :func:`repro.gpusim.cost.estimate_kernel_cost`; ControlDOP is applied
    per candidate (its Span(n)/Split(k) refinement changes cost too).

    Robustness: candidates the cost model prices at NaN/Inf are dropped
    (a poisoned model must never *win* the tuning); when ``budget`` runs
    out mid-sweep the tuner returns its best-so-far (``degraded=True``),
    or the conservative fallback mapping if nothing was priced yet.
    """
    from ..gpusim.cost import estimate_kernel_cost

    if env is None:
        env = analysis.env
    if window is None:
        window = device.dop_window()
    block_sizes = tuple(block_sizes)
    if budget is not None:
        budget.start()

    sizes = tuple(analysis.level_sizes())
    splittable = analysis.constraints.span_all_levels()

    # Hard feasibility is the cheap part of the sweep, and the batch
    # engine evaluates it for the whole candidate matrix at once; fall
    # back to the scalar per-candidate filter only when a hard
    # constraint has no batch predicate.  Either path yields the same
    # mappings in the same order.
    prefiltered = True
    try:
        candidates = list(
            iter_feasible_mappings(
                analysis.depth, analysis.constraints, sizes, block_sizes
            )
        )
    except BatchUnsupported:
        prefiltered = False
        candidates = enumerate_candidates(
            analysis.depth, analysis.constraints, block_sizes
        )

    timed: List[Tuple[Mapping, float]] = []
    rejected_nonfinite = 0
    exhausted = False
    for candidate in candidates:
        if budget is not None and not budget.spend():
            exhausted = True
            break
        if not prefiltered and not hard_feasible(
            candidate, analysis.constraints, sizes
        ):
            continue
        candidate = control_dop(candidate, sizes, window, splittable)
        time_us = estimate_kernel_cost(
            analysis, candidate, device, env
        ).total_us
        if not math.isfinite(time_us):
            rejected_nonfinite += 1
            continue
        timed.append((candidate, time_us))

    if not timed:
        if exhausted or rejected_nonfinite:
            return _degraded_autotune_result(
                analysis, device, env, window, sizes,
                rejected_nonfinite=rejected_nonfinite,
                reason=(
                    "autotune budget exhausted before any candidate was "
                    "priced"
                    if exhausted
                    else f"all {rejected_nonfinite} priced candidate(s) had "
                    "non-finite modeled cost"
                ),
            )
        raise SearchError("no feasible mapping to autotune over")
    timed.sort(key=lambda mt: mt[1])
    best_mapping, best_time = timed[0]
    return AutotuneResult(
        mapping=best_mapping,
        time_us=best_time,
        candidates=len(timed),
        frontier=timed[:keep_top],
        rejected_nonfinite=rejected_nonfinite,
        degraded=exhausted,
        degraded_reason=(
            f"autotune budget exhausted after {len(timed)} priced "
            "candidate(s); best-so-far returned"
            if exhausted
            else ""
        ),
    )


def _degraded_autotune_result(
    analysis: KernelAnalysis,
    device,
    env: SizeEnv,
    window: DopWindow,
    sizes: Tuple[int, ...],
    rejected_nonfinite: int,
    reason: str,
) -> AutotuneResult:
    """Fall back to the conservative mapping when tuning produced nothing.

    The fallback is priced once on a best-effort basis; a non-finite or
    failing price is reported as 0.0 rather than raising — the mapping is
    still hard-feasible and executable, which is the contract that
    matters.
    """
    from ..gpusim.cost import estimate_kernel_cost
    from ..resilience.fallback import conservative_fallback_mapping

    mapping = conservative_fallback_mapping(
        analysis.depth, analysis.constraints, sizes, window
    )
    try:
        time_us = estimate_kernel_cost(analysis, mapping, device, env).total_us
    except ReproError:
        time_us = 0.0
    if not math.isfinite(time_us):
        time_us = 0.0
    return AutotuneResult(
        mapping=mapping,
        time_us=time_us,
        candidates=0,
        frontier=[(mapping, time_us)],
        rejected_nonfinite=rejected_nonfinite,
        degraded=True,
        degraded_reason=f"{reason}; conservative fallback mapping returned",
    )
