"""Recipes: the ordered, content-hashed record of one plan pipeline.

Every :func:`repro.optim.pipeline.build_plan_with_recipe` call emits a
:class:`KernelRecipe` — the serialized input mapping plus one
:class:`PassRecord` per pipeline step (name, params, applied-or-why-not,
pre/post state digests).  A whole compile's :class:`Recipe` bundles the
per-kernel recipes with the compile context (program, device, strategy,
flags, sizes, pipeline version), serializes as versioned JSON, and is
content-hashed with the same canonical-dict machinery as compile
digests, so the service artifact store can address recipes exactly like
artifacts.

Replay (:func:`replay_recipe`) re-executes a recipe pass-by-pass against
the source IR and checks every recorded digest: a tampered recipe — or a
pipeline whose behavior drifted without a
:data:`~repro.ir.serialize.PIPELINE_VERSION` bump — fails with a
:class:`~repro.errors.RecipeReplayError` naming the diverging pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...analysis.mapping import Mapping
from ...errors import RecipeError, RecipeReplayError
from ...gpusim.cost import LaunchPlan
from ...gpusim.device import DEVICES, GpuDevice
from ...ir.patterns import Program
from .base import PlanState, Transformation, run_pipeline

#: Bumped on any incompatible recipe-schema change; loaders check it.
RECIPE_VERSION = 1


@dataclass
class PassRecord:
    """One pipeline step: what ran (or why it did not) and the digests."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    applied: bool = False
    #: "" when applied; "disabled", "not-applicable", or
    #: "requires:<deps>" when skipped.
    skip_reason: str = ""
    pre_digest: str = ""
    post_digest: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "params": dict(self.params),
            "applied": self.applied,
            "skip_reason": self.skip_reason,
            "pre_digest": self.pre_digest,
            "post_digest": self.post_digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PassRecord":
        return cls(
            name=data["name"],
            params=dict(data.get("params") or {}),
            applied=bool(data.get("applied", False)),
            skip_reason=data.get("skip_reason", ""),
            pre_digest=data.get("pre_digest", ""),
            post_digest=data.get("post_digest", ""),
        )


@dataclass
class KernelRecipe:
    """The recorded pipeline of one kernel's plan construction."""

    index: int
    #: The *input* mapping the pipeline started from (serialized).
    mapping: Dict[str, Any]
    passes: List[PassRecord] = field(default_factory=list)
    #: State digest after the last step (equals the input-state digest
    #: when every pass was skipped).
    plan_digest: str = ""
    #: True when the optimizer degraded and this kernel's plan was
    #: substituted rather than built by the pipeline (not replayable).
    degraded: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "mapping": self.mapping,
            "passes": [record.to_dict() for record in self.passes],
            "plan_digest": self.plan_digest,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KernelRecipe":
        return cls(
            index=int(data.get("index", 0)),
            mapping=dict(data.get("mapping") or {}),
            passes=[
                PassRecord.from_dict(record)
                for record in data.get("passes", [])
            ],
            plan_digest=data.get("plan_digest", ""),
            degraded=bool(data.get("degraded", False)),
        )

    def applied_names(self) -> List[str]:
        return [record.name for record in self.passes if record.applied]


@dataclass
class Recipe:
    """Versioned, content-addressable record of one compile's passes."""

    program: str
    device: str
    strategy: str
    sizes: Dict[str, int] = field(default_factory=dict)
    flags: Dict[str, bool] = field(default_factory=dict)
    pipeline_version: int = 0
    kernels: List[KernelRecipe] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": RECIPE_VERSION,
            "kind": "recipe",
            "program": self.program,
            "device": self.device,
            "strategy": self.strategy,
            "sizes": {k: int(v) for k, v in self.sizes.items()},
            "flags": dict(self.flags),
            "pipeline_version": self.pipeline_version,
            "kernels": [kernel.to_dict() for kernel in self.kernels],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Recipe":
        version = data.get("version")
        if version != RECIPE_VERSION:
            raise RecipeError(
                f"recipe version {version!r} is not supported "
                f"(expected {RECIPE_VERSION})"
            )
        return cls(
            program=data.get("program", ""),
            device=data.get("device", ""),
            strategy=data.get("strategy", ""),
            sizes={
                k: int(v) for k, v in (data.get("sizes") or {}).items()
            },
            flags=dict(data.get("flags") or {}),
            pipeline_version=int(data.get("pipeline_version", 0)),
            kernels=[
                KernelRecipe.from_dict(kernel)
                for kernel in data.get("kernels", [])
            ],
        )

    def content_digest(self) -> str:
        """SHA-256 over the canonical JSON encoding — the store address."""
        from ...ir.serialize import content_digest

        return content_digest(self.to_json())

    def resolve_device(self) -> GpuDevice:
        device = DEVICES.get(self.device)
        if device is None:
            known = ", ".join(sorted(DEVICES))
            raise RecipeError(
                f"recipe names unknown device {self.device!r}; known: "
                f"{known}"
            )
        return device

    def write(self, path: str) -> str:
        import os

        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def load_recipe(path: str) -> Recipe:
    with open(path) as handle:
        return Recipe.from_json(json.load(handle))


def recipe_diff(a: Recipe, b: Recipe) -> List[str]:
    """Human-readable differences between two recipes (empty = identical
    content digests)."""
    lines: List[str] = []
    if a.content_digest() == b.content_digest():
        return lines
    for attr in ("program", "device", "strategy", "pipeline_version"):
        va, vb = getattr(a, attr), getattr(b, attr)
        if va != vb:
            lines.append(f"{attr}: {va!r} != {vb!r}")
    if a.sizes != b.sizes:
        lines.append(f"sizes: {a.sizes} != {b.sizes}")
    if a.flags != b.flags:
        lines.append(f"flags: {a.flags} != {b.flags}")
    if len(a.kernels) != len(b.kernels):
        lines.append(
            f"kernel count: {len(a.kernels)} != {len(b.kernels)}"
        )
    for ka, kb in zip(a.kernels, b.kernels):
        prefix = f"kernel {ka.index}"
        if ka.mapping != kb.mapping:
            lines.append(f"{prefix}: input mappings differ")
        names_a = [record.name for record in ka.passes]
        names_b = [record.name for record in kb.passes]
        if names_a != names_b:
            lines.append(
                f"{prefix}: pass order {names_a} != {names_b}"
            )
            continue
        for ra, rb in zip(ka.passes, kb.passes):
            if ra.applied != rb.applied or ra.skip_reason != rb.skip_reason:
                lines.append(
                    f"{prefix}/{ra.name}: "
                    f"{_status(ra)} != {_status(rb)}"
                )
            elif ra.params != rb.params:
                lines.append(
                    f"{prefix}/{ra.name}: params {ra.params} != {rb.params}"
                )
            elif (
                ra.pre_digest != rb.pre_digest
                or ra.post_digest != rb.post_digest
            ):
                lines.append(f"{prefix}/{ra.name}: state digests differ")
        if ka.plan_digest != kb.plan_digest:
            lines.append(f"{prefix}: final plan digests differ")
    return lines


def _status(record: PassRecord) -> str:
    return "applied" if record.applied else f"skipped({record.skip_reason})"


# -- replay -----------------------------------------------------------------


def replay_kernel_recipe(
    analysis,
    kernel: KernelRecipe,
    device: GpuDevice,
) -> PlanState:
    """Re-execute one kernel's recorded pipeline, checking every digest.

    Raises :class:`RecipeReplayError` at the first diverging step — a
    pass that applies when the record says it skipped (or vice versa),
    or a pre/post state digest that no longer matches.
    """
    if kernel.degraded:
        raise RecipeReplayError(
            f"kernel {kernel.index}: recipe records a degraded compile; "
            "the substituted plan was not built by the pass pipeline and "
            "cannot be replayed"
        )
    try:
        mapping = Mapping.from_dict(kernel.mapping)
    except (KeyError, TypeError, ValueError) as exc:
        raise RecipeError(
            f"kernel {kernel.index}: undecodable recipe mapping ({exc})"
        )
    passes = [
        (
            Transformation.from_json(
                {"name": record.name, "params": record.params}
            ),
            record.skip_reason != "disabled",
        )
        for record in kernel.passes
    ]
    state = PlanState.initial(analysis, mapping, device)
    state, steps = run_pipeline(passes, state)
    for record, step in zip(kernel.passes, steps):
        if record.applied != step.applied:
            raise RecipeReplayError(
                f"kernel {kernel.index}, pass {record.name!r}: recorded "
                f"{_status(record)} but replay "
                f"{'applied' if step.applied else 'skipped'} it"
                + (f" ({step.skip_reason})" if step.skip_reason else "")
            )
        if record.pre_digest and record.pre_digest != step.pre_digest:
            raise RecipeReplayError(
                f"kernel {kernel.index}, pass {record.name!r}: pre-state "
                f"digest mismatch (recorded {record.pre_digest[:12]}…, "
                f"replayed {step.pre_digest[:12]}…) — the recipe was "
                "tampered with or the pipeline changed behavior"
            )
        if record.post_digest and record.post_digest != step.post_digest:
            raise RecipeReplayError(
                f"kernel {kernel.index}, pass {record.name!r}: post-state "
                f"digest mismatch (recorded {record.post_digest[:12]}…, "
                f"replayed {step.post_digest[:12]}…) — the recipe was "
                "tampered with or the pipeline changed behavior"
            )
    if kernel.plan_digest and kernel.plan_digest != state.digest():
        raise RecipeReplayError(
            f"kernel {kernel.index}: final plan digest mismatch "
            f"(recorded {kernel.plan_digest[:12]}…, replayed "
            f"{state.digest()[:12]}…)"
        )
    return state


def replay_recipe(
    program: Program,
    recipe: Recipe,
    device: Optional[GpuDevice] = None,
) -> List[LaunchPlan]:
    """Re-execute a whole recipe against the source IR.

    Returns the per-kernel :class:`LaunchPlan` the recorded pipeline
    reproduces; any divergence raises :class:`RecipeReplayError`.
    """
    from ...analysis.analyzer import analyze_program

    if device is None:
        device = recipe.resolve_device()
    analysis = analyze_program(program, **recipe.sizes)
    if len(analysis.kernels) != len(recipe.kernels):
        raise RecipeReplayError(
            f"program has {len(analysis.kernels)} kernel(s) but the "
            f"recipe records {len(recipe.kernels)}"
        )
    plans: List[LaunchPlan] = []
    for ka, kernel in zip(analysis.kernels, recipe.kernels):
        plans.append(replay_kernel_recipe(ka, kernel, device).to_plan())
    return plans


def verify_recipe(
    program: Program,
    recipe: Recipe,
    device: Optional[GpuDevice] = None,
) -> Dict[str, Any]:
    """Replay a recipe and assert byte-identity against a fresh compile.

    The fresh compile runs the full session pipeline under the recipe's
    recorded strategy/flags/sizes; the replayed LaunchPlans must equal
    the fresh decisions' plans exactly, and the generated CUDA must be
    byte-identical.  Degraded kernels are skipped (their plans were
    substituted, not built).  Returns a summary dict; divergence raises
    :class:`RecipeReplayError`.
    """
    from ...runtime.session import GpuSession
    from ..pipeline import OptimizationFlags

    if device is None:
        device = recipe.resolve_device()
    session = GpuSession(
        device=device,
        strategy=recipe.strategy,
        flags=OptimizationFlags.from_dict(recipe.flags),
    )
    compiled = session.compile(program, **recipe.sizes)
    if len(compiled.decisions) != len(recipe.kernels):
        raise RecipeReplayError(
            f"fresh compile produced {len(compiled.decisions)} kernel(s) "
            f"but the recipe records {len(recipe.kernels)}"
        )
    replayed = 0
    skipped = 0
    for decision, kernel in zip(compiled.decisions, recipe.kernels):
        if kernel.degraded:
            skipped += 1
            continue
        state = replay_kernel_recipe(
            decision.analysis, kernel, device
        )
        if state.to_plan() != decision.plan:
            raise RecipeReplayError(
                f"kernel {kernel.index}: replayed LaunchPlan differs "
                "from the fresh compile's plan"
            )
        replayed += 1
    fresh = session.compile(program, **recipe.sizes)
    if fresh.cuda_source != compiled.cuda_source:
        raise RecipeReplayError(
            "fresh compiles disagree on CUDA output — the pipeline is "
            "nondeterministic"
        )
    fresh_recipe = build_compile_recipe(compiled)
    return {
        "ok": True,
        "kernels": len(recipe.kernels),
        "replayed": replayed,
        "skipped_degraded": skipped,
        "recipe_digest": recipe.content_digest(),
        "fresh_recipe_digest": fresh_recipe.content_digest(),
        "cuda_bytes": len(compiled.cuda_source),
    }


def build_compile_recipe(compiled) -> Recipe:
    """Assemble the program-level :class:`Recipe` of a compiled program.

    Reads the per-kernel :class:`KernelRecipe` objects the session
    attached at compile time; a kernel whose optimizer degraded gets a
    pass-free, ``degraded`` marker entry.
    """
    from ...ir.serialize import PIPELINE_VERSION

    kernels: List[KernelRecipe] = []
    for index, decision in enumerate(compiled.decisions):
        kernel = getattr(decision, "recipe", None)
        if kernel is None:
            kernel = KernelRecipe(
                index=index,
                mapping=decision.mapping.to_dict(),
                degraded=True,
            )
        else:
            kernel.index = index
        kernels.append(kernel)
    return Recipe(
        program=compiled.program.name,
        device=compiled.device.name,
        strategy=str(compiled.strategy),
        sizes=dict(compiled.size_hints),
        flags=compiled.flags.to_dict(),
        pipeline_version=PIPELINE_VERSION,
        kernels=kernels,
    )
