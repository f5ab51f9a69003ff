"""Experiment runner and EXPERIMENTS.md generation."""

from __future__ import annotations

import sys
from typing import Callable, Iterable, List, Optional

from ..gpusim.device import GpuDevice, default_device
from .registry import EXPERIMENTS
from .tables import ExperimentResult


def run_experiment(
    experiment_id: str, device: Optional[GpuDevice] = None
) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``"fig3"``)."""
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return fn(device=device or default_device())


def run_all(device: Optional[GpuDevice] = None) -> List[ExperimentResult]:
    """Run every experiment in registry order."""
    return [run_experiment(eid, device) for eid in EXPERIMENTS]


#: Per-experiment commentary for EXPERIMENTS.md: what the paper reports and
#: how the reproduction compares.
_DISCUSSION = {
    "table1": (
        "Paper: the six supported parallel patterns with usage examples.  "
        "Reproduction: each pattern is constructed through the DSL, "
        "executed by the functional interpreter, and compiled to CUDA."
    ),
    "table2": (
        "Paper: example constraints in the Hard/Soft x Local/Global "
        "taxonomy.  Reproduction: each cell is populated with a "
        "constraint the analysis actually generates, plus the divergence "
        "family Section IV-C describes in prose."
    ),
    "fig3": (
        "Paper: no fixed strategy wins everywhere; differences up to 58x; "
        "MultiDim's absolute time is the same for every shape.  "
        "Reproduction: MultiDim flat within 5%; 1D collapses on the "
        "narrow-outer / strided shapes (10-25x vs the paper's up-to-58x "
        "band); fixed 2D strategies ~10x on sumCols (paper: up to 9.6x "
        "for uncoalesceable variants); thread-block/thread pays block "
        "overhead on the 64K-outer shape (2.0x vs paper's ~1.6x).  All "
        "winners/losers match."
    ),
    "fig7": (
        "Paper: prior strategies are fixed points of our parameter space, "
        "with DOP = I*min(J,1024) and I*min(J,32).  Reproduction: exact "
        "(the equivalence is checked programmatically)."
    ),
    "fig12": (
        "Paper: average 24% gap to manual on 7 of 8; MultiDim beats "
        "manual on Gaussian Elimination and BFS; manual wins 2.3x/4.6x on "
        "Pathfinder/LUD via fused shared-memory kernels; 1D up to 60.8x "
        "worse.  Reproduction: same winners everywhere; comparable apps "
        "within 20%; Pathfinder 2.1x and LUD 2.7x (paper 2.3x/4.6x); 1D "
        "collapse is 3-22x (the analytic model under-penalizes extreme "
        "underutilization relative to real hardware).  Note: our "
        "Pathfinder step has a single parallel level, so its 1D column "
        "equals MultiDim — the paper's 19.1x suggests their formulation "
        "exposed a second level."
    ),
    "fig13": (
        "Paper: (R) variants within 1.6x; (C) variants 1.5-9.6x slower "
        "for fixed strategies.  Reproduction: (R) within 1.1x, (C) "
        "3.3-8.6x.  One known divergence: the paper reports warp-based "
        "handling srad (C) at only 1.5x, which our model does not "
        "reproduce (we see the same uncoalesced penalty as "
        "thread-block/thread)."
    ),
    "fig14": (
        "Paper: QPSCD 4.38x over CPU / 8.95x over 1D; MSMBuilder 2.4x / "
        "8.7x; Naive Bayes 12.5x / 4.5x, and 15% better than CPU with "
        "transfer included.  Reproduction: all orderings hold (MultiDim < "
        "CPU < 1D for QPSCD; MultiDim beats 1D 6-10x; transfer narrows "
        "but keeps the Naive Bayes win).  Absolute CPU ratios depend on "
        "the roofline anchors documented in the registry."
    ),
    "fig16": (
        "Paper: malloc costs 16.2x (rows) / 20.8x (cols); fixed layout "
        "costs cols another 5.3x; both kernels equal after full "
        "optimization.  Reproduction: 20x/26x and 7.1x — same structure, "
        "same layout-insensitivity of the row variant."
    ),
    "fig17": (
        "Paper: a high-score region A with the best performance contains "
        "the selected mapping; warp-based sits in poor-performance region "
        "B; false negatives (region C) exist because intrinsic weights "
        "are fixed.  Reproduction: selected mapping within 1.2x of the "
        "best candidate; warp-based ~6x; region C present."
    ),
    "passorder": (
        "Beyond the paper: with the optimizations reified as passes "
        "(Section V as a transformation library), the pipeline order "
        "itself becomes searchable.  The sweep quantifies the ordering "
        "dependency (prealloc without layout forfeits the Fig 16 column "
        "win, a 26x swing), shows the shared-memory stage costing a "
        "fraction of a percent more than it saves on the sparse nests "
        "(qpscd, pagerank), and finds no nest where a non-default "
        "pipeline wins by more than that.  On the tiny sumRows nest, "
        "whose DOP sits below the device window, scheduling control_dop "
        "as a compile-time pass (it is launch-time-only in production) "
        "is the worst ordering: the launch mapping already splits the "
        "map level, which needs no combiner, and the extra Split(k) "
        "lands on the reduce level and pays for one (+5.25 us over "
        "7.40)."
    ),
}


def _experiment_section(eid: str) -> List[str]:
    """The EXPERIMENTS.md lines for one experiment, freshly measured."""
    result = run_experiment(eid)
    lines = [f"## {result.title}", "", "```"]
    lines.append(result.render().split("\n", 2)[2])
    lines.append("```")
    lines.append("")
    if eid in _DISCUSSION:
        lines.append(_DISCUSSION[eid])
        lines.append("")
    return lines


def write_experiments_md(
    path: str = "EXPERIMENTS.md",
    progress: Optional[Callable[[str], None]] = None,
) -> None:
    """Regenerate EXPERIMENTS.md with current measured values.

    The file is only written once every section succeeded: a failing
    experiment never overwrites a complete EXPERIMENTS.md.
    """
    lines = [
        "# EXPERIMENTS — paper vs reproduction",
        "",
        "Regenerate this file with "
        "`python -c \"from repro.figures.runner import write_experiments_md;"
        " write_experiments_md()\"`",
        "or inspect any single experiment with "
        "`python -m repro.figures fig3` etc.",
        "",
        "All GPU numbers come from the analytic Tesla K20c model "
        "(`repro.gpusim`); see DESIGN.md for the substitution rationale. "
        "`paper_*` columns are the paper's reported values (approximate "
        "where only a bar chart reports them).",
        "",
    ]
    for eid in EXPERIMENTS:
        lines.extend(_experiment_section(eid))
        if progress:
            progress(f"measured {eid}")
    lines.extend(_DIFFTEST_EPILOGUE)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


#: Static trailer: the differential-testing campaign is not a paper figure,
#: but it is the evidence that every number above is computed by a compiler
#: whose strategies agree with the reference interpreter.
_DIFFTEST_EPILOGUE = [
    "## Differential testing",
    "",
    "Every figure above relies on the compiler producing the same answer",
    "under every mapping strategy.  That claim is checked continuously by",
    "the differential-execution harness (`repro difftest`): a seeded",
    "generator draws programs spanning all six pattern kinds (map, zipWith,",
    "foreach, filter, reduce, groupBy) with nesting to depth 4,",
    "conditionals, neighbor accesses, and dynamic inner allocations, then",
    "an oracle runs each program through the reference interpreter (loop",
    "and vectorized paths) and through every mapping strategy — multidim,",
    "1d, thread-block/thread, warp-based, and explicit Split(k)-forcing",
    "mappings — with optimizations on and off, asserting identical",
    "results, hard-constraint satisfaction, and finite positive cost.",
    "Failures are shrunk to minimal replayable reproducers.",
    "",
    "```",
    "python -m repro difftest --seed 0 --budget 200   # the CI gate",
    "python -m repro difftest --replay reproducer-000.json",
    "```",
    "",
    "See docs/differential_testing.md for the full design.",
    "",
]


def main(argv: Optional[Iterable[str]] = None) -> int:
    """CLI: ``python -m repro.figures [fig3 fig12 ...]`` (default: all)."""
    args = list(argv if argv is not None else sys.argv[1:])
    ids = args or list(EXPERIMENTS)
    for eid in ids:
        result = run_experiment(eid)
        print(result.render())
        print()
    return 0
