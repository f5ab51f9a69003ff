"""High-level session facade: the library's main entry point.

Typical use::

    from repro import GpuSession
    session = GpuSession()                      # Tesla K20c, MultiDim
    compiled = session.compile(program, R=8192, C=8192)
    result = compiled.run(m=matrix)             # functional execution
    time_us = compiled.estimate_time_us()       # simulated GPU time
    print(compiled.cuda_source)                 # generated CUDA

A :class:`CompiledProgram` bundles per-kernel mapping decisions, launch
plans, generated CUDA, the functional executor, and the cost model.

Each stage runs once per compile: the program is analyzed once, codegen
emits every kernel from that analysis and the decided mappings, and the
provenance record reads the ranking the deciding search kept.

Resilience: each pipeline stage (analysis, search, optimizer, codegen,
interpreter, simulator) runs under a guard.  With ``resilient=True`` (the
default) a failed MultiDim search degrades to the conservative fallback
mapping and a failed optimizer degrades to an unoptimized launch plan —
recorded in :attr:`CompiledProgram.degradations` — while errors in stages
with no safe substitute escape as typed
:class:`~repro.errors.ReproError` exceptions carrying a replayable
:class:`~repro.resilience.reports.FailureReport` (see
``docs/robustness.md``).  A :class:`~repro.resilience.budget.Budget`
bounds compile-time search work; the session holds a budget *template*
and every :meth:`GpuSession.compile` call spends a fresh copy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, NoReturn, Optional, Union

from ..analysis.analyzer import ProgramAnalysis, analyze_program
from ..analysis.mapping import Mapping
from ..analysis.shapes import SizeEnv
from ..codegen.compiler import CompiledModule, compile_program
from ..errors import ReproError, SimulationError
from ..gpusim.cost import (
    LaunchPlan,
    estimate_kernel_cost,
    runtime_level_sizes,
)
from ..gpusim.device import GpuDevice, default_device
from ..gpusim.simulator import KernelDecision, decide_mapping
from ..gpusim.stats import ProgramCost
from ..interp.evaluator import Evaluator
from ..ir.patterns import Program
from ..observability import emit_event, get_metrics, get_tracer
from ..optim.pipeline import (
    OptimizationFlags,
    build_plan,
    build_plan_with_recipe,
)
from ..resilience.budget import Budget
from ..resilience.reports import (
    attach_report,
    build_report,
    write_failure_report,
)
from .buffers import BufferManager
from .launcher import adjust_at_launch

Strategy = Union[str, Mapping]


def _fail(
    exc: ReproError,
    stage: str,
    program: Program,
    strategy: Strategy,
    sizes: Dict[str, int],
    device: GpuDevice,
    kernel_index: Optional[int] = None,
    mapping: Optional[Mapping] = None,
    seed: int = 0,
    report_dir: Optional[str] = None,
) -> NoReturn:
    """Attach a replayable failure report to ``exc`` and re-raise it."""
    report = build_report(
        exc,
        stage,
        program=program,
        kernel_index=kernel_index,
        mapping=mapping,
        strategy=strategy,
        sizes=sizes,
        device=device,
        seed=seed,
    )
    attach_report(exc, report)
    if report_dir:
        try:
            exc.failure_report_path = write_failure_report(report, report_dir)
        except OSError:
            pass  # artifact best-effort; the in-memory report survives
    raise exc


@dataclass
class CompiledProgram:
    """A program after analysis, mapping, optimization, and codegen."""

    program: Program
    device: GpuDevice
    strategy: Strategy
    decisions: List[KernelDecision]
    module: CompiledModule
    analysis: ProgramAnalysis
    flags: OptimizationFlags
    dynamic_launch: bool = True
    #: Human-readable notes for every stage that degraded instead of
    #: failing (empty for a full-fidelity compile).
    degradations: List[str] = field(default_factory=list)
    #: The size bindings the program was compiled under (for reports).
    size_hints: Dict[str, int] = field(default_factory=dict)
    #: Where escaping errors write their failure-report artifacts.
    report_dir: Optional[str] = None
    #: Cached mapping-provenance record (built on first request).
    _provenance: Optional[Any] = field(default=None, repr=False)
    #: Cached program-level transformation recipe.
    _recipe: Optional[Any] = field(default=None, repr=False)

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    def provenance(self):
        """The "why this mapping won" record for this compile.

        Every kernel's top 5 ranked candidates, as the search that chose
        its mapping recorded them, with per-constraint verdicts and score
        deltas; the result serializes to JSON (``repro explain`` renders
        saved artifacts).  Built lazily from the compile's own records
        (no search runs) and cached.
        """
        if self._provenance is None:
            from ..observability.provenance import build_provenance

            self._provenance = build_provenance(self)
        return self._provenance

    def recipe(self):
        """The transformation :class:`~repro.optim.passes.recipe.Recipe`
        recording the exact pass sequence of this compile.

        Content-hashed and replayable (``repro recipe replay``); built
        from the per-kernel recipes the optimizer emitted at compile
        time, and cached.
        """
        if self._recipe is None:
            from ..optim.passes.recipe import build_compile_recipe

            self._recipe = build_compile_recipe(self)
        return self._recipe

    def _fail(
        self,
        exc: ReproError,
        stage: str,
        kernel_index: Optional[int] = None,
        mapping: Optional[Mapping] = None,
        seed: int = 0,
    ) -> NoReturn:
        _fail(
            exc, stage, self.program, self.strategy, self.size_hints,
            self.device, kernel_index=kernel_index, mapping=mapping,
            seed=seed, report_dir=self.report_dir,
        )

    # -- functional execution -------------------------------------------

    def run(self, seed: int = 0, **inputs: Any) -> Any:
        """Execute the program functionally (the correctness oracle)."""
        try:
            return Evaluator(self.program, seed=seed).run(**inputs)
        except ReproError as exc:
            self._fail(exc, "interpreter", seed=seed)

    # -- performance estimation ------------------------------------------

    def estimate_cost(
        self,
        include_transfer: bool = False,
        input_bytes: float = 0.0,
        check: bool = False,
        **sizes: int,
    ) -> ProgramCost:
        """Simulate execution time, optionally at different runtime sizes.

        At the compile's own sizes each kernel is priced with the mapping
        and launch plan it ships, as ``simulate_program`` prices it.  At
        other sizes, with ``dynamic_launch`` (the default), block sizes
        and span/split factors are re-tuned per kernel while keeping the
        static dimension/span-kind decision, as in Section IV-D, and the
        plan is rebuilt for the re-tuned mapping.

        With ``check=True`` a non-finite modeled cost raises a typed
        :class:`~repro.errors.SimulationError` (with failure report)
        instead of returning a silently poisoned estimate.
        """
        if sizes:
            env = SizeEnv.for_program(self.program, **sizes)
        else:
            env = self.analysis.env
        result = ProgramCost()
        for index, decision in enumerate(self.decisions):
            analysis = decision.analysis
            mapping = decision.mapping
            try:
                level_sizes = runtime_level_sizes(analysis.nest, env)
                if level_sizes == analysis.level_sizes():
                    result.kernels.append(decision.cost(self.device, env))
                    continue
                # Dynamic adjustment retunes what the MultiDim analysis
                # left dynamic; fixed baseline strategies keep their
                # defining block geometry (that rigidity is exactly what
                # the paper measures).
                if self.dynamic_launch and self.strategy == "multidim":
                    mapping = adjust_at_launch(
                        mapping,
                        analysis.constraints,
                        level_sizes,
                        self.device.dop_window(),
                    )
                plan = build_plan(analysis, mapping, self.device, self.flags)
                result.kernels.append(
                    estimate_kernel_cost(
                        analysis, mapping, self.device, env, plan
                    )
                )
            except ReproError as exc:
                self._fail(exc, "simulator", kernel_index=index,
                           mapping=mapping)
        if include_transfer and input_bytes > 0:
            buffers = BufferManager(self.device)
            result.transfer_us = buffers.transfer_time_us(input_bytes)
        if check:
            bad = result.check_finite()
            if bad:
                self._fail(
                    SimulationError(
                        "cost model produced non-finite components: "
                        + ", ".join(bad)
                    ),
                    "simulator",
                )
        return result

    def estimate_time_us(self, **sizes: int) -> float:
        return self.estimate_cost(**sizes).total_us

    # -- artifacts ---------------------------------------------------------

    @property
    def cuda_source(self) -> str:
        return self.module.source

    def mappings(self) -> List[Mapping]:
        return [d.mapping for d in self.decisions]

    def describe(self) -> str:
        lines = [f"program {self.program.name} ({len(self.decisions)} kernels)"]
        for i, d in enumerate(self.decisions):
            lines.append(f"  kernel {i}: {d.mapping}")
        for note in self.degradations:
            lines.append(f"  degraded: {note}")
        return "\n".join(lines)

    def report(self) -> str:
        """A markdown compilation report: per-kernel mapping rationale,
        cost breakdown, and the generated CUDA."""
        from ..analysis.explain import explain_mapping

        lines = [
            f"# Compilation report: {self.program.name}",
            "",
            f"- device: {self.device.name}",
            f"- strategy: {self.strategy}",
            f"- kernels: {len(self.decisions)}",
            "",
        ]
        if self.degradations:
            lines.append("## Degradations")
            lines.append("")
            lines.extend(f"- {note}" for note in self.degradations)
            lines.append("")
        for index, decision in enumerate(self.decisions):
            ka = decision.analysis
            lines.append(f"## Kernel {index}")
            lines.append("")
            lines.append(
                f"- nest depth {ka.depth}, analysis sizes "
                f"{ka.level_sizes()}"
            )
            lines.append(f"- mapping: `{decision.mapping}`")
            lines.append("")
            lines.append("### Why this mapping")
            lines.append("")
            lines.append("```")
            lines.append(explain_mapping(ka, decision.mapping).render())
            lines.append("```")
            lines.append("")
            lines.append("### Simulated cost")
            lines.append("")
            lines.append("```")
            cost = decision.cost(self.device, self.analysis.env)
            lines.append(cost.describe())
            lines.append("```")
            lines.append("")
        lines.append("## Generated CUDA")
        lines.append("")
        lines.append("```cuda")
        lines.append(self.cuda_source.rstrip())
        lines.append("```")
        return "\n".join(lines)


class GpuSession:
    """Compilation sessions bind a device, strategy, and optimizations.

    ``budget`` is a template: each compile spends a fresh copy, so one
    slow compile cannot starve the next.  ``report_dir`` makes escaping
    errors write their replayable failure reports as JSON artifacts; it
    defaults to the ``REPRO_REPORT_DIR`` environment variable when set
    (CI exports it so any pipeline failure during the test run leaves an
    uploadable artifact).  ``resilient=False`` turns stage degradation
    off (every stage error escapes, still typed and reported) — used by
    tests that assert the undegraded behavior.
    """

    def __init__(
        self,
        device: Optional[GpuDevice] = None,
        strategy: Strategy = "multidim",
        flags: Optional[OptimizationFlags] = None,
        dynamic_launch: bool = True,
        budget: Optional[Budget] = None,
        report_dir: Optional[str] = None,
        resilient: bool = True,
    ):
        self.device = device or default_device()
        self.strategy = strategy
        self.flags = (
            flags if flags is not None else OptimizationFlags.default()
        )
        self.dynamic_launch = dynamic_launch
        self.budget = budget
        self.report_dir = (
            report_dir
            if report_dir is not None
            else os.environ.get("REPRO_REPORT_DIR") or None
        )
        self.resilient = resilient

    def _fallback_decision(self, ka) -> KernelDecision:
        """The guaranteed-feasible decision substituted for a dead search."""
        from ..resilience.fallback import conservative_fallback_mapping

        mapping = conservative_fallback_mapping(
            ka.depth, ka.constraints, ka.level_sizes(),
            self.device.dop_window(),
        )
        return KernelDecision(ka, mapping, LaunchPlan(prealloc=True))

    def compile(
        self,
        program: Program,
        budget: Optional[Budget] = None,
        **size_hints: int,
    ) -> CompiledProgram:
        """Analyze, map, optimize, and generate code for a program."""
        with get_tracer().span(
            "compile", program=program.name, strategy=str(self.strategy)
        ) as span:
            compiled = self._compile(program, budget, **size_hints)
            span.set(
                kernels=len(compiled.decisions),
                degradations=len(compiled.degradations),
            )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("compile.runs").inc()
            if compiled.degradations:
                metrics.counter("resilience.degradation.activations").inc(
                    len(compiled.degradations)
                )
        return compiled

    def _compile(
        self,
        program: Program,
        budget: Optional[Budget],
        **size_hints: int,
    ) -> CompiledProgram:
        if budget is None and self.budget is not None:
            budget = self.budget.fresh()
        if budget is not None:
            budget.start()

        def fail(
            exc: ReproError,
            stage: str,
            kernel_index: Optional[int] = None,
            mapping: Optional[Mapping] = None,
        ) -> NoReturn:
            _fail(
                exc, stage, program, self.strategy, dict(size_hints),
                self.device, kernel_index=kernel_index, mapping=mapping,
                report_dir=self.report_dir,
            )

        try:
            analysis = analyze_program(program, **size_hints)
        except ReproError as exc:
            fail(exc, "analysis")

        degradations: List[str] = []

        def degrade(kind: str, index: int, reason: str, note: str) -> None:
            # Every degradation note has its event and its counter.
            degradations.append(f"kernel {index}: {note}")
            emit_event(kind, program=program.name, kernel=index, reason=reason)
            get_metrics().counter(f"resilience.degradation.{kind}").inc()

        decisions: List[KernelDecision] = []
        for index, ka in enumerate(analysis.kernels):
            try:
                decision = decide_mapping(
                    ka, self.strategy, self.device, optimize=False,
                    budget=budget,
                )
            except ReproError as exc:
                # Only the MultiDim search has a safe substitute; fixed
                # strategies fail for structural reasons (wrong nest
                # depth) the fallback cannot paper over, and silently
                # replacing them would corrupt baseline comparisons.
                if not (self.resilient and self.strategy == "multidim"):
                    fail(exc, "search", kernel_index=index)
                try:
                    decision = self._fallback_decision(ka)
                except ReproError:
                    fail(exc, "search", kernel_index=index)
                reason = f"{type(exc).__name__}: {exc}"
                degrade(
                    "fallback_mapping", index, reason,
                    f"mapping search failed ({reason}); conservative "
                    "fallback mapping substituted",
                )
            else:
                if decision.search is not None and decision.search.degraded:
                    reason = decision.search.degraded_reason
                    degrade("fallback_mapping", index, reason, reason)
            try:
                decision.plan, decision.recipe = build_plan_with_recipe(
                    ka, decision.mapping, self.device, self.flags
                )
            except ReproError as exc:
                if not self.resilient:
                    fail(
                        exc, "optimizer", kernel_index=index,
                        mapping=decision.mapping,
                    )
                decision.plan = LaunchPlan(prealloc=True)
                decision.recipe = None
                reason = f"{type(exc).__name__}: {exc}"
                degrade(
                    "unoptimized_plan", index, reason,
                    f"optimizer failed ({reason}); unoptimized launch plan "
                    "substituted",
                )
            decisions.append(decision)

        try:
            module = compile_program(
                analysis,
                [d.mapping for d in decisions],
                prealloc=self.flags.prealloc,
            )
        except ReproError as exc:
            fail(exc, "codegen")

        return CompiledProgram(
            program=program,
            device=self.device,
            strategy=self.strategy,
            decisions=decisions,
            module=module,
            analysis=analysis,
            flags=self.flags,
            dynamic_launch=self.dynamic_launch,
            degradations=degradations,
            size_hints=dict(size_hints),
            report_dir=self.report_dir,
        )
