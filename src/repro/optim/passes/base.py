"""Reified transformation passes: contract, state, and registry.

The optimization pipeline used to be an opaque, hard-coded sequence
inside :func:`repro.optim.pipeline.build_plan`; here each rewrite is a
first-class :class:`Transformation` object (the SDFG idiom) with an
applicability predicate, a pure ``apply`` over an immutable
:class:`PlanState`, and a stable JSON encoding — which is what makes a
compile explainable (per-pass spans and counters), diffable (pre/post
state digests), replayable (``repro recipe replay``), and searchable
(pass-ordering autotune, :mod:`.tune`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
    Type,
)

from ...analysis.analyzer import KernelAnalysis
from ...analysis.mapping import Mapping
from ...errors import RecipeError
from ...gpusim.cost import LaunchPlan
from ...gpusim.device import GpuDevice


@dataclass(frozen=True)
class PlanState:
    """Everything a pass may read or rewrite, as an immutable value.

    The *inputs* (analysis, device) are carried for convenience; the
    *decisions* — the mapping plus the :class:`LaunchPlan` fields — are
    what passes transform.  :meth:`digest` hashes only the decisions, so
    two pipelines that reach the same decisions by different routes
    digest identically (and a replayed pass can be checked against the
    recorded digest without re-serializing the kernel IR).
    """

    analysis: KernelAnalysis
    mapping: Mapping
    device: GpuDevice
    prealloc: bool = False
    layout_strides: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    smem_prefetch: FrozenSet[str] = frozenset()
    extra_shared_bytes: int = 0

    @classmethod
    def initial(
        cls,
        analysis: KernelAnalysis,
        mapping: Mapping,
        device: GpuDevice,
    ) -> "PlanState":
        return cls(analysis=analysis, mapping=mapping, device=device)

    def evolve(self, **changes: Any) -> "PlanState":
        return replace(self, **changes)

    def decisions_dict(self) -> Dict[str, Any]:
        """The JSON-able decision payload the state digest covers."""
        return {
            "mapping": self.mapping.to_dict(),
            "prealloc": self.prealloc,
            "layout_strides": [
                [key, list(strides)] for key, strides in self.layout_strides
            ],
            "smem_prefetch": sorted(self.smem_prefetch),
            "extra_shared_bytes": self.extra_shared_bytes,
        }

    def digest(self) -> str:
        """SHA-256 over the canonical encoding of the decisions."""
        from ...ir.serialize import content_digest

        return content_digest(self.decisions_dict())

    def to_plan(self) -> LaunchPlan:
        """The :class:`LaunchPlan` these decisions denote."""
        return LaunchPlan(
            prealloc=self.prealloc,
            layout_strides=self.layout_strides,
            smem_prefetch=self.smem_prefetch,
            extra_shared_bytes=self.extra_shared_bytes,
        )


class Transformation:
    """One reified optimization pass.

    Subclasses define a unique ``name``, an optional ``requires`` tuple
    naming passes that must have been *applied earlier* in the same
    pipeline (an ordering dependency, enforced by the runner and by the
    pass-ordering tuner), and the three behavior hooks:

    * :meth:`can_be_applied` — a pure structural predicate on the inputs;
    * :meth:`apply` — ``PlanState -> PlanState``, total and deterministic
      for a given state (this is what makes recipes replayable);
    * ``params`` — the JSON-able constructor arguments, round-tripped by
      :meth:`to_json` / :meth:`from_json`.
    """

    #: Stable registry key; also the span name suffix and recipe entry.
    name: ClassVar[str] = ""
    #: Passes that must have been applied earlier in the pipeline.
    requires: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, **params: Any) -> None:
        if params:
            raise RecipeError(
                f"pass {self.name!r} takes no parameters, got "
                f"{sorted(params)}"
            )

    @property
    def params(self) -> Dict[str, Any]:
        """JSON-able constructor parameters (empty by default)."""
        return {}

    def can_be_applied(
        self,
        analysis: KernelAnalysis,
        mapping: Mapping,
        device: GpuDevice,
    ) -> bool:
        """Whether the pass is structurally applicable to this kernel."""
        raise NotImplementedError

    def apply(self, state: PlanState) -> PlanState:
        """Apply the transformation; must be pure and deterministic."""
        raise NotImplementedError

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "params": self.params}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Transformation":
        """Rebuild a pass (of any registered subclass) from its JSON."""
        name = data.get("name")
        pass_cls = get_pass(name)
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise RecipeError(
                f"pass {name!r}: params must be an object, got "
                f"{type(params).__name__}"
            )
        try:
            return pass_cls(**params)
        except TypeError as exc:
            raise RecipeError(
                f"pass {name!r}: undecodable params {params!r} ({exc})"
            )

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{type(self).__name__}({args})"


# -- registry ---------------------------------------------------------------

_REGISTRY: Dict[str, Type[Transformation]] = {}


def register_pass(cls: Type[Transformation]) -> Type[Transformation]:
    """Class decorator adding a pass to the global registry.

    Names are the recipe/CLI vocabulary, so re-registering a name with a
    different class is an error (same class twice is an idempotent
    no-op, tolerating module re-imports).
    """
    if not cls.name:
        raise RecipeError(f"pass class {cls.__name__} has no name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise RecipeError(
            f"pass name {cls.name!r} already registered to "
            f"{existing.__name__}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def get_pass(name: Any) -> Type[Transformation]:
    """The registered pass class for ``name`` (RecipeError if unknown)."""
    _ensure_library()
    cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(_REGISTRY))
        raise RecipeError(f"unknown pass {name!r}; registered: {known}")
    return cls


def registered_passes() -> Dict[str, Type[Transformation]]:
    """Name -> class for every registered pass (copy; sorted by name)."""
    _ensure_library()
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def _ensure_library() -> None:
    # The built-in passes live in .library; importing it populates the
    # registry.  Deferred so base <-> library never import-cycle.
    from . import library  # noqa: F401


@dataclass
class PassApplication:
    """One runner step: the pass plus whether/why it ran (pre-recipe)."""

    transformation: Transformation
    applied: bool
    skip_reason: str = ""
    pre_digest: str = ""
    post_digest: str = ""


def run_pipeline(
    passes: List[Tuple[Transformation, bool]],
    state: PlanState,
) -> Tuple[PlanState, List[PassApplication]]:
    """Run an ordered pass list over ``state``, recording each step.

    ``passes`` pairs each transformation with an *enabled* bit (a
    disabled pass is recorded as skipped — the recipe keeps the full
    picture of what the pipeline considered).  Ordering dependencies
    (``requires``) and :meth:`Transformation.can_be_applied` are checked
    here, once, so every caller — the default pipeline, replay, and the
    ordering tuner — shares one semantics.
    """
    from ...observability import get_metrics, get_tracer

    tracer = get_tracer()
    metrics = get_metrics()
    applied_names: set = set()
    steps: List[PassApplication] = []
    for transformation, enabled in passes:
        name = transformation.name
        pre = state.digest()
        skip_reason = ""
        if not enabled:
            skip_reason = "disabled"
        else:
            missing = [
                dep for dep in transformation.requires
                if dep not in applied_names
            ]
            if missing:
                skip_reason = "requires:" + ",".join(missing)
            elif not transformation.can_be_applied(
                state.analysis, state.mapping, state.device
            ):
                skip_reason = "not-applicable"
        if skip_reason:
            if metrics.enabled:
                metrics.counter("optimize.pass.skipped").inc()
                metrics.counter(f"optimize.pass.skipped.{name}").inc()
            steps.append(
                PassApplication(
                    transformation=transformation,
                    applied=False,
                    skip_reason=skip_reason,
                    pre_digest=pre,
                    post_digest=pre,
                )
            )
            continue
        with tracer.span(f"pass.{name}"):
            state = transformation.apply(state)
        applied_names.add(name)
        if metrics.enabled:
            metrics.counter("optimize.pass.applied").inc()
            metrics.counter(f"optimize.pass.applied.{name}").inc()
        steps.append(
            PassApplication(
                transformation=transformation,
                applied=True,
                pre_digest=pre,
                post_digest=state.digest(),
            )
        )
    return state, steps


def feasible_order(passes: List[Transformation]) -> bool:
    """Whether every pass's ``requires`` precede it in ``passes``.

    The ordering tuner enumerates permutations/subsets; this is the
    cheap structural prefilter that rejects infeasible sequences before
    any of them is priced.
    """
    seen: set = set()
    for transformation in passes:
        if any(dep not in seen for dep in transformation.requires):
            return False
        seen.add(transformation.name)
    return True
