"""The chaos harness: drive the fault matrix through the full pipeline.

For every valid (stage, fault-kind) pair — or a caller-chosen subset —
this installs a single-fault plan, pushes a program through compile →
functional run → cost estimation, and classifies the outcome:

* ``degraded`` — the pipeline absorbed the fault and completed; the
  result still matches the reference interpreter bit-for-bit and every
  chosen mapping satisfies its hard constraints;
* ``typed-error`` — a :class:`~repro.errors.ReproError` escaped, carrying
  a replayable :class:`~repro.resilience.reports.FailureReport`;
* ``ok`` — the fault never triggered (a stage the pipeline legitimately
  skipped);
* anything else — ``untyped-crash``, ``wrong-result``, or a typed error
  *without* a report — is a resilience bug, and fails the matrix.

``repro chaos`` and ``tests/resilience/test_chaos_matrix.py`` both run
through here, so the CLI and CI enforce the same contract.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .faults import FAULT_MATRIX, FaultPlan, inject_faults
from .reports import FailureReport, write_failure_report

__all__ = ["ChaosCell", "ChaosMatrixResult", "run_chaos_matrix"]

#: Outcome classes that count as resilient behavior.
GOOD_OUTCOMES = ("degraded", "typed-error", "ok")


@dataclass
class ChaosCell:
    """Outcome of one (stage, kind) fault-injection run."""

    stage: str
    kind: str
    outcome: str
    detail: str = ""
    fired: bool = False
    report: Optional[FailureReport] = None
    artifact_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.outcome in GOOD_OUTCOMES

    def describe(self) -> str:
        mark = "ok " if self.ok else "BAD"
        line = (
            f"[{mark}] {self.stage:<11} {self.kind:<9} -> {self.outcome}"
        )
        if self.detail:
            line += f" ({self.detail})"
        if self.artifact_path:
            line += f" [report: {self.artifact_path}]"
        return line


@dataclass
class ChaosMatrixResult:
    """All cells of one chaos run."""

    cells: List[ChaosCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def describe(self) -> str:
        lines = [
            f"chaos matrix: {len(self.cells)} cell(s), "
            f"{sum(1 for c in self.cells if not c.ok)} violation(s)"
        ]
        lines.extend(f"  {cell.describe()}" for cell in self.cells)
        return "\n".join(lines)


def _feasible_everywhere(compiled) -> Optional[str]:
    """None when every kernel mapping is hard-feasible, else a message."""
    from ..analysis.scoring import hard_feasible

    for index, decision in enumerate(compiled.decisions):
        if not hard_feasible(
            decision.mapping,
            decision.analysis.constraints,
            decision.analysis.level_sizes(),
        ):
            return (
                f"kernel {index} mapping {decision.mapping} violates a "
                "hard constraint"
            )
    return None


def run_chaos_cell(
    program,
    stage: str,
    kind: str,
    expected,
    expected_inputs,
    inputs,
    seed: int = 0,
    strategy: str = "multidim",
    out_dir: Optional[str] = None,
    artifact_index: int = 0,
) -> ChaosCell:
    """Run the pipeline once under a single injected fault and classify."""
    from ..difftest.oracle import results_equal
    from ..runtime.session import GpuSession

    plan = FaultPlan.single(stage, kind)
    try:
        with inject_faults(plan):
            session = GpuSession(strategy=strategy)
            compiled = session.compile(program)
            run_inputs = copy.deepcopy(inputs)
            result = compiled.run(seed=seed, **run_inputs)
            compiled.estimate_cost(check=True)
    except ReproError as exc:
        report = getattr(exc, "failure_report", None)
        cell = ChaosCell(
            stage=stage,
            kind=kind,
            outcome="typed-error" if report is not None else "unreported-error",
            detail=f"{type(exc).__name__}: {exc}",
            fired=bool(plan.fired),
            report=report,
        )
        if report is not None and out_dir:
            cell.artifact_path = write_failure_report(
                report, out_dir, artifact_index
            )
        return cell
    except Exception as exc:  # the exact failure mode chaos exists to catch
        return ChaosCell(
            stage=stage,
            kind=kind,
            outcome="untyped-crash",
            detail=f"{type(exc).__name__}: {exc}",
            fired=bool(plan.fired),
        )

    infeasible = _feasible_everywhere(compiled)
    if infeasible:
        return ChaosCell(
            stage=stage, kind=kind, outcome="infeasible-mapping",
            detail=infeasible, fired=bool(plan.fired),
        )
    if not results_equal(expected, result, exact=True):
        return ChaosCell(
            stage=stage, kind=kind, outcome="wrong-result",
            detail="result differs from the reference interpreter",
            fired=bool(plan.fired),
        )
    if not results_equal(expected_inputs, run_inputs, exact=True):
        return ChaosCell(
            stage=stage, kind=kind, outcome="wrong-result",
            detail="input mutation differs from the reference interpreter",
            fired=bool(plan.fired),
        )
    if not plan.fired:
        return ChaosCell(
            stage=stage, kind=kind, outcome="ok",
            detail="fault never triggered", fired=False,
        )
    degradations = "; ".join(compiled.degradations)
    return ChaosCell(
        stage=stage, kind=kind, outcome="degraded",
        detail=degradations or "pipeline absorbed the fault",
        fired=True,
    )


def run_chaos_matrix(
    program,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    seed: int = 0,
    strategy: str = "multidim",
    out_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    sizes: Optional[dict] = None,
) -> ChaosMatrixResult:
    """Run every (stage, kind) pair against one program.

    The reference result comes from the loop interpreter with no faults
    installed.  ``sizes`` overrides the program's size hints (chaos
    coverage does not need production shapes, and the reference
    interpreter is a scalar loop).
    """
    import dataclasses

    from ..difftest.oracle import make_inputs
    from ..interp.evaluator import run_program

    if sizes:
        program = dataclasses.replace(
            program, size_hints={**(program.size_hints or {}), **sizes}
        )
    # The reference is the fault-free vectorized evaluator — the same
    # engine ``CompiledProgram.run`` uses, so a surviving pipeline must
    # reproduce it bit-for-bit (the scalar-vs-vectorized tolerance
    # question belongs to the difftest oracle, not to chaos).
    inputs = make_inputs(program, seed=seed)
    ref_inputs = copy.deepcopy(inputs)
    expected = run_program(program, seed=seed, **ref_inputs)

    result = ChaosMatrixResult()
    for stage, kind in pairs or FAULT_MATRIX:
        cell = run_chaos_cell(
            program, stage, kind, expected, ref_inputs, inputs,
            seed=seed, strategy=strategy, out_dir=out_dir,
            artifact_index=len(result.cells),
        )
        result.cells.append(cell)
        if progress:
            progress(cell.describe())
    return result
