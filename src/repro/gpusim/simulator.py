"""Simulator facade: program + strategy -> estimated execution time.

A *strategy* is either the name of a fixed baseline ("1d",
"thread-block/thread", "warp-based"), the string "multidim" (run the
paper's search per kernel), or an explicit :class:`Mapping` applied to every
kernel.  :func:`decide_mapping` resolves a strategy to one kernel's
mapping; :func:`simulate_program` prices a whole program through
:meth:`repro.runtime.session.GpuSession.compile`, the one pipeline that
builds launch plans, so the figures price the kernels that ship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..analysis.analyzer import KernelAnalysis
from ..analysis.mapping import Mapping
from ..analysis.search import SearchResult
from ..analysis.shapes import SizeEnv
from ..ir.patterns import Program
from .cost import LaunchPlan, estimate_kernel_cost
from .device import GpuDevice
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
    budget=None,
) -> KernelDecision:
    """Resolve a strategy to a concrete mapping for one kernel.

    The decision carries a bare plan (preallocation only); the session
    replaces it with the plan the Section-V pipeline builds.  ``budget``
    bounds the MultiDim search (ignored by fixed strategies, which decide
    in constant time).
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
    return KernelDecision(
        analysis, mapping, LaunchPlan(prealloc=True), score, search
    )


def simulate_program(
    program: Program,
    strategy: Strategy = "multidim",
    device: Optional[GpuDevice] = None,
    input_bytes: float = 0.0,
    include_transfer: bool = False,
    **sizes: int,
) -> ProgramCost:
    """Estimate a whole program's execution time under a strategy.

    ``sizes`` override the program's size hints (the benchmark harness
    sweeps shapes this way).  ``input_bytes``/``include_transfer`` model
    the host-to-device copy the paper includes only in Section VI-E.
    Every stage error escapes: nothing degrades under a figure.
    """
    from ..runtime.session import GpuSession

    compiled = GpuSession(device, strategy, resilient=False).compile(
        program, **sizes
    )
    return compiled.estimate_cost(
        include_transfer=include_transfer, input_bytes=input_bytes
    )
