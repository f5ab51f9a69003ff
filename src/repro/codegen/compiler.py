"""Program-level compiler: analyzed, mapped program -> generated CUDA module.

One kernel is generated per outermost pattern (the paper's one-to-one
mapping), each from the mapping the session decided for it.  The module
also carries the device-function preamble and, for a split Reduce,
combiner kernels.  Codegen neither analyzes, maps nor plans: it reads the
session's :class:`~repro.analysis.analyzer.ProgramAnalysis`, mappings and
launch plans, so the generated module always matches the launch
decisions the cost model prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..analysis.analyzer import ProgramAnalysis
from ..analysis.mapping import Mapping
from ..errors import CodegenError
from ..gpusim.cost import LaunchPlan
from ..ir.patterns import Program
from .kernels import CompiledKernel, KernelGenerator, device_function_preamble


@dataclass
class CompiledModule:
    """All generated kernels for one program."""

    program: Program
    kernels: List[CompiledKernel] = field(default_factory=list)
    preamble: str = ""

    @property
    def source(self) -> str:
        """The complete CUDA translation unit."""
        parts = ["#include <cfloat>", ""]
        if self.preamble:
            parts.append(self.preamble)
        for kernel in self.kernels:
            parts.append(kernel.full_source)
        return "\n".join(parts)


def compile_program(
    analysis: ProgramAnalysis,
    mappings: Sequence[Mapping],
    plans: Sequence[LaunchPlan],
) -> CompiledModule:
    """Generate CUDA for every kernel of an analyzed program.

    ``mappings`` and ``plans`` hold one entry per kernel, in analysis
    order: the session passes its decided (possibly degraded) mappings
    and the launch plans the cost model prices, so preallocation and
    buffer layouts are emitted as priced.
    """
    from ..observability import get_tracer, instrumented_stage

    program = analysis.program
    tracer = get_tracer()
    with instrumented_stage("codegen", program=program.name) as scope:
        if not len(mappings) == len(plans) == len(analysis.kernels):
            raise CodegenError(
                f"expected {len(analysis.kernels)} mappings and plans, "
                f"got {len(mappings)} and {len(plans)}"
            )
        module = CompiledModule(program=program)
        for index, (ka, mapping, plan) in enumerate(
            zip(analysis.kernels, mappings, plans)
        ):
            name = f"{_sanitize(program.name)}_kernel{index}"
            with tracer.span("codegen.kernel", kernel=name):
                generator = KernelGenerator(
                    ka, mapping, program, kernel_name=name, plan=plan
                )
                module.kernels.append(generator.generate())
        module.preamble = device_function_preamble(
            [ka.root for ka in analysis.kernels]
        )
        scope.span.set(kernels=len(module.kernels))
        return module


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)
