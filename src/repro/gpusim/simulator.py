"""Simulator facade: program + strategy -> estimated execution time.

This is the low-level entry point the runtime session and the benchmark
harness build on.  A *strategy* is either the name of a fixed baseline
("1d", "thread-block/thread", "warp-based"), the string "multidim" (run the
paper's search per kernel), or an explicit :class:`Mapping` applied to every
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..analysis.analyzer import KernelAnalysis, analyze_program
from ..analysis.mapping import Mapping
from ..analysis.search import SearchResult
from ..analysis.shapes import SizeEnv
from ..ir.patterns import Program
from .cost import LaunchPlan, estimate_kernel_cost
from .device import GpuDevice, default_device
from .stats import KernelCost, ProgramCost

Strategy = Union[str, Mapping]


@dataclass
class KernelDecision:
    """The mapping (and plan) chosen for one kernel under a strategy."""

    analysis: KernelAnalysis
    mapping: Mapping
    plan: LaunchPlan
    score: Optional[float] = None
    #: Search telemetry when the "multidim" strategy ran the search.
    search: Optional[SearchResult] = None
    #: The :class:`~repro.optim.passes.recipe.KernelRecipe` recording the
    #: pass pipeline that built ``plan`` (None when the plan was
    #: substituted rather than built — degraded compiles, bare plans).
    recipe: Optional[object] = None

    def cost(self, device: GpuDevice, env: Optional[SizeEnv] = None) -> KernelCost:
        return estimate_kernel_cost(
            self.analysis, self.mapping, device, env, self.plan
        )


def decide_mapping(
    analysis: KernelAnalysis,
    strategy: Strategy,
    device: GpuDevice,
    optimize: bool = True,
    budget=None,
    flags=None,
) -> KernelDecision:
    """Resolve a strategy to a concrete mapping for one kernel.

    With ``optimize=True`` (the default, matching the paper's "all results
    utilized the optimizations where applicable") the Section-V pipeline
    builds the launch plan; otherwise a bare plan with preallocation only.
    ``budget`` bounds the MultiDim search (ignored by fixed strategies,
    which decide in constant time); ``flags`` selects which optimization
    passes the pipeline applies (default: all).
    """
    score: Optional[float] = None
    search: Optional[SearchResult] = None
    if isinstance(strategy, Mapping):
        mapping = strategy
    elif strategy == "multidim":
        search = analysis.select_mapping(
            window=device.dop_window(), budget=budget
        )
        mapping, score = search.mapping, search.score
    else:
        mapping = analysis.strategy_mapping(strategy)
    recipe = None
    if optimize:
        from ..optim.pipeline import build_plan_with_recipe

        plan, recipe = build_plan_with_recipe(
            analysis, mapping, device, flags
        )
    else:
        plan = LaunchPlan(prealloc=True)
    return KernelDecision(analysis, mapping, plan, score, search, recipe)


def simulate_program(
    program: Program,
    strategy: Strategy = "multidim",
    device: Optional[GpuDevice] = None,
    plan: Optional[LaunchPlan] = None,
    input_bytes: float = 0.0,
    include_transfer: bool = False,
    **sizes: int,
) -> ProgramCost:
    """Estimate a whole program's execution time under a strategy.

    ``sizes`` override the program's size hints (the benchmark harness
    sweeps shapes this way).  ``input_bytes``/``include_transfer`` model
    the host-to-device copy the paper includes only in Section VI-E.
    """
    from ..observability import instrumented_stage

    with instrumented_stage(
        "simulate_program",
        inject=False,
        program=program.name,
        strategy=str(strategy),
    ) as span:
        if device is None:
            device = default_device()
        pa = analyze_program(program, **sizes)
        result = ProgramCost()
        for ka in pa.kernels:
            decision = decide_mapping(ka, strategy, device)
            if plan is not None:
                decision.plan = plan
            result.kernels.append(decision.cost(device, pa.env))
        if include_transfer and input_bytes > 0:
            result.transfer_us = (
                device.pcie_latency_us
                + input_bytes / (device.pcie_bandwidth_gbs * 1e9) * 1e6
            )
        span.set(kernels=len(result.kernels), total_us=round(result.total_us, 3))
        return result
