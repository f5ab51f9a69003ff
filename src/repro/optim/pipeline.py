"""Optimization pipeline: analysis + mapping -> a LaunchPlan.

The pipeline is a sequence of reified :mod:`repro.optim.passes`
transformations; the production order applies the paper's two
mapping-coupled optimizations:

1. preallocation of inner allocations (``prealloc``) with
   mapping-directed layout (``layout``, Section V-A), and
2. shared-memory prefetching for imperfect nests (``shared_memory``,
   Section V-B),

producing the :class:`~repro.gpusim.cost.LaunchPlan` the cost model and
the runtime consume.  Flags allow each optimization to be disabled for
the ablation experiments (Figure 16's three configurations); every run
also emits a :class:`~repro.optim.passes.recipe.KernelRecipe` recording
the exact pass sequence with pre/post state digests
(:func:`build_plan_with_recipe`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..analysis.analyzer import KernelAnalysis
from ..analysis.mapping import Mapping
from ..errors import RuntimeConfigError
from ..gpusim.cost import LaunchPlan
from ..gpusim.device import GpuDevice, default_device


@dataclass(frozen=True)
class OptimizationFlags:
    """Which optimizations to apply (all on by default, as in the paper).

    Field names predate the pass registry; the pass-name spelling
    (``prealloc``, ``layout``, ``shared_memory``) is accepted by
    :meth:`from_names` and is what the ``--disable-opt`` CLI flag takes.
    """

    prealloc: bool = True
    layout_opt: bool = True
    shared_memory: bool = True

    #: Pass name -> flag field (the CLI/registry vocabulary).
    _PASS_FIELDS = (
        ("prealloc", "prealloc"),
        ("layout", "layout_opt"),
        ("shared_memory", "shared_memory"),
    )

    @classmethod
    def default(cls) -> "OptimizationFlags":
        """Every optimization enabled — the paper's configuration.

        Use this instead of ``OptimizationFlags()`` in signature
        defaults: a shared default *instance* in a ``def`` line is
        evaluated once at import and silently couples every caller.
        """
        return cls()

    @classmethod
    def none(cls) -> "OptimizationFlags":
        """Every optimization disabled — the ablation baseline."""
        return cls(prealloc=False, layout_opt=False, shared_memory=False)

    @classmethod
    def from_names(
        cls, disable: Optional[Iterable[str]] = None
    ) -> "OptimizationFlags":
        """Flags with the named passes disabled (``None``/empty = all on).

        Names are pass-registry names; unknown names raise
        :class:`~repro.errors.RuntimeConfigError` listing the vocabulary.
        """
        fields = dict(cls._PASS_FIELDS)
        values = {field: True for field in fields.values()}
        for name in disable or ():
            field = fields.get(name)
            if field is None:
                known = ", ".join(name for name, _ in cls._PASS_FIELDS)
                raise RuntimeConfigError(
                    f"unknown optimization {name!r}; known: {known}"
                )
            values[field] = False
        return cls(**values)

    def to_dict(self) -> Dict[str, bool]:
        """The JSON form requests, artifacts and recipes carry."""
        return {
            "prealloc": self.prealloc,
            "layout_opt": self.layout_opt,
            "shared_memory": self.shared_memory,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OptimizationFlags":
        """Inverse of :meth:`to_dict`; a missing key means enabled."""
        return cls(
            prealloc=bool(data.get("prealloc", True)),
            layout_opt=bool(data.get("layout_opt", True)),
            shared_memory=bool(data.get("shared_memory", True)),
        )

    def disabled_names(self) -> Tuple[str, ...]:
        """Pass names currently disabled (inverse of :meth:`from_names`)."""
        return tuple(
            name
            for name, field in self._PASS_FIELDS
            if not getattr(self, field)
        )


def default_pipeline(flags: OptimizationFlags):
    """The production pass sequence with per-pass enable bits.

    Order is fixed (prealloc -> layout -> shared_memory, matching the
    legacy fused pipeline byte-for-byte); flags toggle passes without
    reordering.  ControlDOP is deliberately absent: in production it is
    a launch-time mapping rewrite
    (:func:`repro.runtime.launcher.adjust_at_launch`), not a plan pass —
    the pass-ordering tuner (:mod:`repro.optim.passes.tune`) is where
    pulling it into the pipeline is explored.
    """
    from .passes.library import LayoutPass, PreallocPass, SharedMemoryPass

    return [
        (PreallocPass(), flags.prealloc),
        (LayoutPass(), flags.layout_opt),
        (SharedMemoryPass(), flags.shared_memory),
    ]


def build_plan_with_recipe(
    analysis: KernelAnalysis,
    mapping: Mapping,
    device: Optional[GpuDevice] = None,
    flags: Optional[OptimizationFlags] = None,
):
    """Run the optimization pipeline for one kernel, emitting the recipe.

    Returns ``(LaunchPlan, KernelRecipe)``; the recipe records every
    pipeline step (applied or skipped, with pre/post state digests) and
    the input mapping, which is what makes the plan replayable and
    diffable (``repro recipe``).
    """
    from ..observability import instrumented_stage
    from .passes.base import PlanState, run_pipeline
    from .passes.recipe import KernelRecipe, PassRecord

    if flags is None:
        flags = OptimizationFlags.default()
    if device is None:
        device = default_device()
    with instrumented_stage(
        "optimizer",
        span_name="optimize",
        prealloc=flags.prealloc,
        layout_opt=flags.layout_opt,
        shared_memory=flags.shared_memory,
    ) as scope:
        state = PlanState.initial(analysis, mapping, device)
        state, steps = run_pipeline(default_pipeline(flags), state)
        records: List[PassRecord] = [
            PassRecord(
                name=step.transformation.name,
                params=step.transformation.params,
                applied=step.applied,
                skip_reason=step.skip_reason,
                pre_digest=step.pre_digest,
                post_digest=step.post_digest,
            )
            for step in steps
        ]
        recipe = KernelRecipe(
            index=0,
            mapping=mapping.to_dict(),
            passes=records,
            plan_digest=state.digest(),
        )
        plan = state.to_plan()
        scope.set(
            prealloc_arrays=len(plan.layout_strides),
            smem_arrays=len(plan.smem_prefetch),
            smem_bytes=plan.extra_shared_bytes,
            passes_applied=sum(1 for step in steps if step.applied),
        )
        return plan, recipe


def build_plan(
    analysis: KernelAnalysis,
    mapping: Mapping,
    device: Optional[GpuDevice] = None,
    flags: Optional[OptimizationFlags] = None,
) -> LaunchPlan:
    """Run the optimization pipeline for one kernel."""
    plan, _ = build_plan_with_recipe(analysis, mapping, device, flags)
    return plan
