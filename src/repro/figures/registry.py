"""Experiment registry: one function per table/figure of the paper.

Each function regenerates the corresponding result as an
:class:`~repro.figures.tables.ExperimentResult` whose rows carry both our
measured (simulated) values and the paper's reported values where the paper
states them.  EXPERIMENTS.md is generated from these.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..analysis.analyzer import analyze_program
from ..analysis.strategies import thread_block_thread, warp_based
from ..apps import (
    BFS,
    GAUSSIAN,
    HOTSPOT,
    LUD,
    MANDELBROT,
    MSMBUILDER,
    NAIVE_BAYES,
    NEAREST_NEIGHBOR,
    PATHFINDER,
    QPSCD,
    SRAD,
    SUM_COLS,
    SUM_ROWS,
)
from ..apps.naive_bayes import input_bytes as nb_input_bytes
from ..gpusim.cost import estimate_kernel_cost
from ..gpusim.cpu import estimate_cpu_time_us
from ..gpusim.device import GpuDevice, default_device
from ..gpusim.simulator import decide_mapping, simulate_program
from ..optim.pipeline import OptimizationFlags, build_plan
from .tables import ExperimentResult

FIXED_STRATEGIES = ("1d", "thread-block/thread", "warp-based")


def table1_patterns(device: Optional[GpuDevice] = None) -> ExperimentResult:
    """Table I: every supported pattern, demonstrated live.

    Each row constructs the pattern through the DSL, runs it functionally,
    and compiles it to CUDA — proving the full pipeline supports the
    complete Table-I set.
    """
    import numpy as np

    from ..interp.evaluator import run_program
    from ..ir.builder import Builder, store
    from ..ir.types import F64, I64
    from ..runtime.session import GpuSession

    device = device or default_device()
    rng = np.random.default_rng(0)
    data = rng.random(64)
    other = rng.random(64)

    def sample(name, build, inputs, describe_result):
        program = build()
        out = run_program(program, **inputs)
        source = GpuSession(device).compile(program, N=64).module.source
        return {
            "pattern": name,
            "example": program.name,
            "functional_result": describe_result(out),
            "cuda": "ok" if "__global__" in source else "FAILED",
        }

    def b_map():
        b = Builder("map_demo")
        xs = b.vector("xs", F64, length="N")
        return b.build(xs.map(lambda e: e + 1))

    def b_zip():
        b = Builder("zipWith_demo")
        xs = b.vector("xs", F64, length="N")
        ys = b.vector("ys", F64, length="N")
        return b.build(xs.zip_with(ys, lambda a, c: a + c))

    def b_foreach():
        b = Builder("foreach_demo")
        xs = b.vector("xs", F64, length="N")
        out = b.vector("out", F64, length="N")
        return b.build(xs.foreach(lambda e, i: [store(out, i, e * 2)]))

    def b_filter():
        b = Builder("filter_demo")
        xs = b.vector("xs", F64, length="N")
        return b.build(xs.filter(lambda e: e > 0.5))

    def b_reduce():
        b = Builder("reduce_demo")
        xs = b.vector("xs", F64, length="N")
        return b.build(xs.reduce("+"))

    def b_groupby():
        b = Builder("groupBy_demo")
        xs = b.vector("xs", F64, length="N")
        return b.build(xs.group_by(lambda e: (e * 4).cast(I64)))

    out_buffer = np.zeros(64)
    rows = [
        sample("map", b_map, {"xs": data, "N": 64},
               lambda o: f"len {len(o)}"),
        sample("zipWith", b_zip, {"xs": data, "ys": other, "N": 64},
               lambda o: f"len {len(o)}"),
        sample("foreach", b_foreach,
               {"xs": data, "out": out_buffer, "N": 64},
               lambda o: f"wrote {int((out_buffer != 0).sum())} elems"),
        sample("filter", b_filter, {"xs": data, "N": 64},
               lambda o: f"kept {len(o)} of 64"),
        sample("reduce", b_reduce, {"xs": data, "N": 64},
               lambda o: f"sum {float(o):.3f}"),
        sample("groupBy", b_groupby, {"xs": data, "N": 64},
               lambda o: f"{len(o)} groups"),
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Table I: supported parallel patterns (live demonstration)",
        columns=["pattern", "example", "functional_result", "cuda"],
        rows=rows,
        notes="Each pattern is built via the DSL, executed functionally, "
              "and compiled to CUDA with the MultiDim strategy.",
    )


def table2_constraints(device: Optional[GpuDevice] = None) -> ExperimentResult:
    """Table II: the constraint taxonomy, populated from live analyses.

    Each row of the paper's table is matched with a constraint actually
    generated by the analysis on a representative program.
    """
    from ..analysis.analyzer import analyze_program
    from ..analysis.constraints import (
        AvoidDivergence,
        BlockSizeFloor,
        CoalesceDimX,
        SpanAllRequired,
    )
    from ..apps.bfs import build_bfs_step
    from ..apps.sums import build_sum_rows

    device = device or default_device()
    rows = []

    sums = analyze_program(build_sum_rows(), R=1024, C=1024).kernel(0)
    bfs = analyze_program(build_bfs_step(), N=4096, E=4096 * 12).kernel(0)

    def first(kernel, cls):
        return next(
            c for c in kernel.constraints.constraints if isinstance(c, cls)
        )

    hard_local = first(sums, SpanAllRequired)
    rows.append(
        {
            "weight": "Hard", "scope": "Local",
            "paper_rule": "patterns requiring global synchronization "
            "(e.g. Reduce) get Span(all)",
            "generated_example": hard_local.description,
        }
    )
    rows.append(
        {
            "weight": "Hard", "scope": "Global",
            "paper_rule": "most conservative span per level "
            "(Span(all) beats Span(n))",
            "generated_example": (
                f"level-wide Span(all) map: "
                f"{sums.constraints.span_all_levels()}"
            ),
        }
    )
    soft_local = first(sums, CoalesceDimX)
    rows.append(
        {
            "weight": "Soft", "scope": "Local",
            "paper_rule": "sequential memory requests -> Dim(x), block "
            "multiple of WARP_SIZE",
            "generated_example": soft_local.description,
        }
    )
    soft_global = first(sums, BlockSizeFloor)
    rows.append(
        {
            "weight": "Soft", "scope": "Global",
            "paper_rule": "threads per block (all dimensions) >= "
            "MIN_BLOCK_SIZE (64)",
            "generated_example": soft_global.description,
        }
    )
    divergence = first(bfs, AvoidDivergence)
    rows.append(
        {
            "weight": "Soft", "scope": "Local",
            "paper_rule": "avoid thread divergence (Section IV-C's "
            "optimization families)",
            "generated_example": divergence.description,
        }
    )
    return ExperimentResult(
        experiment_id="table2",
        title="Table II: constraint taxonomy, with live generated examples",
        columns=["weight", "scope", "paper_rule", "generated_example"],
        rows=rows,
    )

#: Figure 3 matrix shapes: constant element count (64M), varying skew.
FIG3_SHAPES = ((65536, 1024), (8192, 8192), (1024, 65536))


def fig03_sum_strategies(device: Optional[GpuDevice] = None) -> ExperimentResult:
    """Figure 3: sumCols/sumRows under fixed strategies vs MultiDim."""
    device = device or default_device()
    result = ExperimentResult(
        experiment_id="fig3",
        title="Figure 3: normalized execution time of fixed mapping "
        "strategies (sumCols / sumRows)",
        columns=[
            "kernel", "shape", "multidim_ms",
            "1d", "thread-block/thread", "warp-based",
        ],
        notes=(
            "Values are execution times normalized to MultiDim.  The paper "
            "reports differences up to 58x, with 1D worst on skewed shapes "
            "and the fixed 2D strategies ~10x slower on sumCols."
        ),
    )
    for app in (SUM_COLS, SUM_ROWS):
        program = app.build()
        for rows, cols in FIG3_SHAPES:
            base = simulate_program(
                program, "multidim", device, R=rows, C=cols
            ).total_us
            row: Dict[str, Any] = {
                "kernel": app.name,
                "shape": f"[{rows // 1024}K,{cols // 1024}K]",
                "multidim_ms": base / 1000.0,
            }
            for strategy in FIXED_STRATEGIES:
                time = simulate_program(
                    program, strategy, device, R=rows, C=cols
                ).total_us
                row[strategy] = time / base
            result.rows.append(row)
    return result


def fig07_equivalence(device: Optional[GpuDevice] = None) -> ExperimentResult:
    """Figure 7: prior strategies as points in our parameter space.

    Checks the DOP formulas the paper derives: thread-block/thread gives
    ``I * min(J, 1024)``; warp-based gives ``I * min(J, 32)``.
    """
    device = device or default_device()
    result = ExperimentResult(
        experiment_id="fig7",
        title="Figure 7: fixed strategies expressed in our mapping "
        "parameters (DOP check)",
        columns=["strategy", "I", "J", "mapping", "dop", "expected_dop"],
    )
    for I, J in ((4096, 64), (4096, 4096), (128, 100000)):
        tbt = thread_block_thread([I, J])
        wb = warp_based([I, J])
        result.rows.append(
            {
                "strategy": "thread-block/thread",
                "I": I,
                "J": J,
                "mapping": str(tbt),
                "dop": tbt.dop([I, J]),
                "expected_dop": I * min(J, 1024),
            }
        )
        result.rows.append(
            {
                "strategy": "warp-based",
                "I": I,
                "J": J,
                "mapping": str(wb),
                "dop": wb.dop([I, J]),
                "expected_dop": I * min(J, 32),
            }
        )
    return result


#: Paper values read off Figure 12 (normalized to manual; approximate where
#: only the bar chart reports them).
_FIG12_PAPER = {
    "nearestNeighbor": {"multidim": 1.2, "1d": 1.2},
    "gaussian": {"multidim": 0.9, "1d": 2.3},
    "hotspot": {"multidim": 1.0, "1d": 15.7},
    "mandelbrot": {"multidim": 1.0, "1d": 40.1},
    "srad": {"multidim": 1.1, "1d": 25.4},
    "pathfinder": {"multidim": 2.3, "1d": 19.1},
    "lud": {"multidim": 4.6, "1d": 60.8},
    "bfs": {"multidim": 0.8, "1d": 1.0},
}

_FIG12_APPS = (
    NEAREST_NEIGHBOR,
    GAUSSIAN,
    HOTSPOT,
    MANDELBROT,
    SRAD,
    PATHFINDER,
    LUD,
    BFS,
)


def fig12_rodinia(device: Optional[GpuDevice] = None) -> ExperimentResult:
    """Figure 12: Rodinia apps vs manual CUDA and the 1D mapping."""
    device = device or default_device()
    result = ExperimentResult(
        experiment_id="fig12",
        title="Figure 12: Rodinia benchmarks, execution time normalized "
        "to the hand-optimized implementation",
        columns=[
            "app", "manual", "multidim", "1d",
            "paper_multidim", "paper_1d",
        ],
        notes=(
            "manual is 1.0 by construction.  Manual profiles encode the "
            "mechanisms the paper attributes to each hand-written version "
            "(see each app module)."
        ),
    )
    for app in _FIG12_APPS:
        params = dict(app.default_params)
        program = app.build()
        ours = simulate_program(
            program, "multidim", device, **params
        ).total_us * app.iterations
        oned = simulate_program(
            program, "1d", device, **params
        ).total_us * app.iterations
        manual = (
            app.manual_time_us(device, **params) * app.iterations
            if app.manual_time_us
            else ours
        )
        paper = _FIG12_PAPER.get(app.name, {})
        result.rows.append(
            {
                "app": app.name,
                "manual": 1.0,
                "multidim": ours / manual,
                "1d": oned / manual,
                "paper_multidim": paper.get("multidim", ""),
                "paper_1d": paper.get("1d", ""),
            }
        )
    return result


#: Paper values read off Figure 13 (normalized to MultiDim).
_FIG13_PAPER = {
    ("gaussian", "R"): {"thread-block/thread": 1.6, "warp-based": 1.5},
    ("gaussian", "C"): {"thread-block/thread": 9.1, "warp-based": 5.6},
    ("hotspot", "R"): {"thread-block/thread": 1.5, "warp-based": 1.1},
    ("hotspot", "C"): {"thread-block/thread": 3.5, "warp-based": 1.5},
    ("mandelbrot", "R"): {"thread-block/thread": 1.0, "warp-based": 1.0},
    ("mandelbrot", "C"): {"thread-block/thread": 1.6, "warp-based": 1.6},
    ("srad", "R"): {"thread-block/thread": 1.1, "warp-based": 1.0},
    ("srad", "C"): {"thread-block/thread": 9.6, "warp-based": 1.5},
}


def fig13_fixed_2d(device: Optional[GpuDevice] = None) -> ExperimentResult:
    """Figure 13: MultiDim vs fixed two-dimensional strategies on row- and
    column-major traversal variants."""
    device = device or default_device()
    result = ExperimentResult(
        experiment_id="fig13",
        title="Figure 13: fixed 2D strategies vs MultiDim on (R) and (C) "
        "traversal variants, normalized to MultiDim",
        columns=[
            "app", "order", "thread-block/thread", "warp-based",
            "paper_tbt", "paper_warp",
        ],
        notes=(
            "The paper reports similar performance for (R) variants (up to "
            "1.6x) and 1.5x-9.6x slowdowns for (C) variants, where fixed "
            "strategies cannot adapt the dimension assignment."
        ),
    )
    variants = (
        (GAUSSIAN, {"N": 2048, "T": 0}),
        (HOTSPOT, {"R": 2048, "C": 2048}),
        (MANDELBROT, {"H": 2048, "W": 2048}),
        (SRAD, {"R": 2048, "C": 2048}),
    )
    for app, params in variants:
        for order in ("R", "C"):
            if app is MANDELBROT:
                from ..apps.mandelbrot import build_mandelbrot_oriented

                program = build_mandelbrot_oriented(order)
                run_params = params
            else:
                program = app.build(order=order)
                run_params = params
            base = simulate_program(
                program, "multidim", device, **run_params
            ).total_us
            row: Dict[str, Any] = {"app": app.name, "order": order}
            for strategy, col in (
                ("thread-block/thread", "thread-block/thread"),
                ("warp-based", "warp-based"),
            ):
                time = simulate_program(
                    program, strategy, device, **run_params
                ).total_us
                row[col] = time / base
            paper = _FIG13_PAPER.get((app.name, order), {})
            row["paper_tbt"] = paper.get("thread-block/thread", "")
            row["paper_warp"] = paper.get("warp-based", "")
            result.rows.append(row)
    return result


#: Paper values from Figure 14 / Section VI-E (normalized to multi-core).
_FIG14_PAPER = {
    "qpscd": {"1d": 2.04, "multidim": 0.23},
    "msmbuilder": {"1d": 3.6, "multidim": 0.42},
    "naiveBayes": {"1d": 0.36, "multidim": 0.08, "multidim_with_transfer": 0.85},
}

#: CPU roofline efficiency per app: how close the paper's hand-tuned
#: multi-core reference runs to the socket's roofline.  These anchor the
#: CPU bar; GPU-side numbers are all produced by the simulator.
_FIG14_CPU_EFFICIENCY = {
    "qpscd": 0.50,       # bandwidth-bound anyway; rows stream well
    "msmbuilder": 0.85,  # hand-vectorized SSE3, compute bound
    "naiveBayes": 0.45,  # streaming reductions
}

#: Passes the CPU reference makes over the data beyond what the single
#: GPU kernel expresses (e.g. Naive Bayes training computes per-class
#: conditional statistics in separate sweeps).
_FIG14_CPU_PASSES = {
    "qpscd": 1.0,
    "msmbuilder": 1.0,
    "naiveBayes": 3.0,
}


def fig14_real_world(device: Optional[GpuDevice] = None) -> ExperimentResult:
    """Figure 14: real-world apps vs multi-core CPU and 1D mapping."""
    device = device or default_device()
    result = ExperimentResult(
        experiment_id="fig14",
        title="Figure 14: real-world applications, normalized to the "
        "multi-core CPU implementation",
        columns=[
            "app", "cpu", "1d", "multidim",
            "paper_1d", "paper_multidim",
        ],
        notes=(
            "naiveBayes rows include a with-transfer variant (Section "
            "VI-E).  CPU anchors use per-app roofline efficiencies "
            "documented in the registry."
        ),
    )
    for app in (QPSCD, MSMBUILDER, NAIVE_BAYES):
        params = dict(app.default_params)
        program = app.build()
        analysis = analyze_program(program, **params)
        cpu_us = sum(
            estimate_cpu_time_us(
                ka, analysis.env,
                efficiency=_FIG14_CPU_EFFICIENCY[app.name],
            )
            for ka in analysis.kernels
        ) * _FIG14_CPU_PASSES[app.name]
        ours = simulate_program(program, "multidim", device, **params).total_us
        oned = simulate_program(program, "1d", device, **params).total_us
        paper = _FIG14_PAPER.get(app.name, {})
        result.rows.append(
            {
                "app": app.name,
                "cpu": 1.0,
                "1d": oned / cpu_us,
                "multidim": ours / cpu_us,
                "paper_1d": paper.get("1d", ""),
                "paper_multidim": paper.get("multidim", ""),
            }
        )
        if app is NAIVE_BAYES:
            transfer = simulate_program(
                program,
                "multidim",
                device,
                input_bytes=nb_input_bytes(**params),
                include_transfer=True,
                **params,
            ).total_us
            result.rows.append(
                {
                    "app": "naiveBayes+transfer",
                    "cpu": 1.0,
                    "1d": "",
                    "multidim": transfer / cpu_us,
                    "paper_1d": "",
                    "paper_multidim": paper.get("multidim_with_transfer", ""),
                }
            )
    return result


def fig16_prealloc(device: Optional[GpuDevice] = None) -> ExperimentResult:
    """Figure 16: dynamic-allocation optimization ablation."""
    from ..apps import SUM_WEIGHTED_COLS, SUM_WEIGHTED_ROWS

    device = device or default_device()
    result = ExperimentResult(
        experiment_id="fig16",
        title="Figure 16: impact of preallocation and layout selection, "
        "normalized to the fully optimized version",
        columns=[
            "kernel", "prealloc+layout", "prealloc_only", "malloc",
            "paper_prealloc_only", "paper_malloc",
        ],
        notes=(
            "The paper reports 16.2x (rows) / 20.8x (cols) for malloc and "
            "a further 5.3x layout penalty for sumWeightedCols."
        ),
    )
    paper = {
        "sumWeightedRows": {"prealloc_only": 1.0, "malloc": 16.2},
        "sumWeightedCols": {"prealloc_only": 5.3, "malloc": 20.8},
    }
    params = {"R": 8192, "C": 8192}
    for app in (SUM_WEIGHTED_ROWS, SUM_WEIGHTED_COLS):
        program = app.build()
        analysis = analyze_program(program, **params)
        ka = analysis.kernel(0)
        decision = decide_mapping(ka, "multidim", device)
        mapping = decision.mapping
        configs = {
            "prealloc+layout": OptimizationFlags(True, True, True),
            "prealloc_only": OptimizationFlags(True, False, True),
            "malloc": OptimizationFlags(False, False, False),
        }
        times = {}
        for label, flags in configs.items():
            plan = build_plan(ka, mapping, device, flags)
            times[label] = estimate_kernel_cost(
                ka, mapping, device, analysis.env, plan
            ).total_us
        base = times["prealloc+layout"]
        result.rows.append(
            {
                "kernel": app.name,
                "prealloc+layout": 1.0,
                "prealloc_only": times["prealloc_only"] / base,
                "malloc": times["malloc"] / base,
                "paper_prealloc_only": paper[app.name]["prealloc_only"],
                "paper_malloc": paper[app.name]["malloc"],
            }
        )
    return result


def fig17_score_scatter(
    device: Optional[GpuDevice] = None, max_rows: int = 200
) -> ExperimentResult:
    """Figure 17: score vs simulated performance across candidate mappings
    for Mandelbrot on a skewed (50, 20K) output."""
    device = device or default_device()
    params = {"H": 50, "W": 20000}
    program = MANDELBROT.build()
    analysis = analyze_program(program, **params)
    ka = analysis.kernel(0)
    search = ka.select_mapping(window=device.dop_window(), keep_all=True)
    max_score = max((s.score for s in search.all_scored), default=1.0)

    scored = sorted(search.all_scored, key=lambda s: -s.score)
    stride = max(1, len(scored) // max_rows)
    sample = scored[::stride]

    times = []
    for sm in sample:
        cost = estimate_kernel_cost(ka, sm.mapping, device, analysis.env)
        times.append(cost.total_us)
    best_time = min(times)

    chosen_time = estimate_kernel_cost(
        ka, search.mapping, device, analysis.env
    ).total_us
    warp = warp_based(ka.level_sizes())
    warp_time = estimate_kernel_cost(
        ka, warp, device, analysis.env
    ).total_us

    result = ExperimentResult(
        experiment_id="fig17",
        title="Figure 17: mapping score vs simulated execution time "
        "(Mandelbrot, 50 x 20K output)",
        columns=["mapping", "score", "time_norm"],
        notes=(
            f"candidates={len(scored)}; chosen mapping time "
            f"{chosen_time / best_time:.2f}x of best (region A); "
            f"warp-based {warp_time / best_time:.2f}x (region B).  "
            "Rows are a score-ordered subsample."
        ),
    )
    for sm, time in zip(sample, times):
        result.rows.append(
            {
                "mapping": str(sm.mapping),
                "score": sm.score / max_score if max_score else 0.0,
                "time_norm": time / best_time,
            }
        )
    return result


def passorder_tuning(device: Optional[GpuDevice] = None) -> ExperimentResult:
    """Pass-ordering autotune: when does the pipeline order/subset matter?

    For each nest, the tuner prices every dependency-feasible
    permutation of every subset of the registered passes against the
    default production ordering (prealloc -> layout -> shared_memory;
    ControlDOP launch-time only).  Three regimes show up:

    * ordering dependencies carry real cost: dropping ``layout`` from a
      column-weighted sum leaves the naive row-major strides (+6x);
    * on a tiny nest whose launch DOP sits below the device window,
      pulling ``control_dop`` into the pipeline is the worst ordering:
      the launch mapping already splits the map level, which needs no
      combiner, and the extra Split(k) lands on the reduce level and
      pays for one;
    * on already-coalesced nests every ordering collapses onto one or
      two plan digests and the default is optimal.
    """
    from ..apps import ALL_APPS
    from ..optim.passes.tune import autotune_pass_order
    from ..runtime.session import GpuSession

    cases = [
        ("sumRows", dict(R=8, C=8)),
        ("sumRows", dict(R=512, C=512)),
        ("sumWeightedCols", dict(R=8192, C=8192)),
        ("qpscd", dict(S=1024, N=1024, C=256)),
        ("pagerank", dict(N=4096, E=65536)),
    ]
    rows = []
    nontrivial = 0
    for app_name, sizes in cases:
        app = ALL_APPS[app_name]
        session = GpuSession(device=device)
        compiled = session.compile(app.build(), **sizes)
        decision = compiled.decisions[0]
        result = autotune_pass_order(
            decision.analysis, decision.mapping, compiled.device
        )
        worst = max(result.frontier, key=lambda entry: entry.time_us)
        spread = worst.time_us - result.best.time_us
        if spread > 0:
            nontrivial += 1
        rows.append(
            {
                "app": app_name,
                "sizes": " ".join(f"{k}={v}" for k, v in sizes.items()),
                "orderings": result.enumerated,
                "distinct": result.distinct,
                "default_us": round(result.default.time_us, 3),
                "best_us": round(result.best.time_us, 3),
                "best_order": " -> ".join(result.best.passes) or "(empty)",
                "improvement_pct": round(
                    100.0 * result.improvement_us
                    / result.default.time_us,
                    2,
                ),
                "worst_delta_us": round(
                    worst.time_us - result.default.time_us, 3
                ),
            }
        )
    return ExperimentResult(
        experiment_id="passorder",
        title="Pass-ordering autotune: modeled cost across pipeline "
        "orderings and subsets",
        columns=[
            "app", "sizes", "orderings", "distinct", "default_us",
            "best_us", "best_order", "improvement_pct", "worst_delta_us",
        ],
        rows=rows,
        notes=(
            f"{nontrivial}/{len(rows)} nests show a cost spread across "
            "orderings/subsets.  improvement_pct > 0 means a non-default "
            "pipeline beats the production order; worst_delta_us is the "
            "price of the worst feasible subset (ordering dependencies "
            "are enforced, so 'layout before prealloc' is never priced)."
        ),
    )


EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_patterns,
    "table2": table2_constraints,
    "fig3": fig03_sum_strategies,
    "fig7": fig07_equivalence,
    "fig12": fig12_rodinia,
    "fig13": fig13_fixed_2d,
    "fig14": fig14_real_world,
    "fig16": fig16_prealloc,
    "fig17": fig17_score_scatter,
    "passorder": passorder_tuning,
}
