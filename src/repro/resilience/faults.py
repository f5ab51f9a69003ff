"""Deterministic fault injection for the compilation pipeline.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming
a pipeline *stage* and a fault *kind*.  Stages call
:func:`maybe_inject` at their entry (or around a vulnerable operation);
when no plan is installed the call is a single ``None`` check, so
production runs pay nothing.

Determinism is the point: a spec fires on the *n*-th matching invocation
of its stage (per-plan counters), so re-installing the same plan and
re-running the same pipeline reproduces the same fault at the same place.
Failure reports serialize the active plan
(:meth:`FaultPlan.to_dict`), which is what makes injected failures
replayable by ``repro replay-failure``.

Fault kinds
-----------

========== ============================= ===========================
kind        applicable stages             effect at the call site
========== ============================= ===========================
exception   every stage                   raises ``InjectedFaultError``
nan         simulator                     cost model returns NaN
inf         simulator                     cost model returns +inf
deadline    search                        search budget expires now
kill        fleet                         backend dead until restarted
hang        fleet                         request stalls, then fails
slow        fleet                         response delayed, then served
partition   fleet                         transport error for a window
========== ============================= ===========================

``exception`` is raised directly by :func:`maybe_inject`; the data-shaped
kinds are *returned* to the call site, which applies the corruption it
models (the cost model poisons its result, the search expires its
budget).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import InjectedFaultError

__all__ = [
    "STAGES",
    "PIPELINE_STAGES",
    "KINDS",
    "FAULT_MATRIX",
    "FLEET_FAULT_KINDS",
    "FLEET_FAULT_MATRIX",
    "FaultSpec",
    "FaultPlan",
    "inject_faults",
    "active_plan",
    "maybe_inject",
]

#: Compilation-pipeline stages with an injection point.
PIPELINE_STAGES = (
    "analysis",
    "search",
    "optimizer",
    "codegen",
    "simulator",
    "interpreter",
)

#: All stages, including the fleet transport layer.  "fleet" faults fire
#: inside a :class:`~repro.resilience.fleet_chaos.ChaosBackend` wrapping
#: one fleet backend, not inside the pipeline.
STAGES = PIPELINE_STAGES + ("fleet",)

#: Transport-shaped fault kinds for the fleet stage: a backend killed
#: until explicitly restarted, a request that hangs before failing, a
#: slow-but-correct response, and a bounded network partition.
FLEET_FAULT_KINDS = ("kill", "hang", "slow", "partition")

#: All fault kinds.
KINDS = ("exception", "nan", "inf", "deadline") + FLEET_FAULT_KINDS

#: Which kinds make sense per stage ("exception" everywhere).
_KINDS_FOR_STAGE: Dict[str, Tuple[str, ...]] = {
    "analysis": ("exception",),
    "search": ("exception", "deadline"),
    "optimizer": ("exception",),
    "codegen": ("exception",),
    "simulator": ("exception", "nan", "inf"),
    "interpreter": ("exception",),
    "fleet": ("exception",) + FLEET_FAULT_KINDS,
}

#: Every valid (stage, kind) pair of the *pipeline* chaos matrix.  The
#: fleet tier has its own matrix below — its cells need a running fleet,
#: not a bare pipeline, so ``repro chaos`` and ``repro fleet chaos``
#: iterate disjoint matrices.
FAULT_MATRIX: Tuple[Tuple[str, str], ...] = tuple(
    (stage, kind)
    for stage in PIPELINE_STAGES
    for kind in _KINDS_FOR_STAGE[stage]
)

#: The fleet chaos matrix (``repro fleet chaos``).
FLEET_FAULT_MATRIX: Tuple[Tuple[str, str], ...] = tuple(
    ("fleet", kind) for kind in FLEET_FAULT_KINDS
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire ``times`` times starting at the ``at``-th
    matching invocation of ``stage`` (1-based).  ``times=0`` means every
    invocation from ``at`` on."""

    stage: str
    kind: str = "exception"
    at: int = 1
    times: int = 1

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(
                f"unknown stage {self.stage!r}; known: {', '.join(STAGES)}"
            )
        if self.kind not in _KINDS_FOR_STAGE[self.stage]:
            raise ValueError(
                f"kind {self.kind!r} does not apply to stage "
                f"{self.stage!r} (valid: "
                f"{', '.join(_KINDS_FOR_STAGE[self.stage])})"
            )
        if self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")

    def fires_at(self, invocation: int) -> bool:
        if invocation < self.at:
            return False
        return self.times == 0 or invocation < self.at + self.times

    def to_dict(self) -> Dict:
        return {
            "stage": self.stage,
            "kind": self.kind,
            "at": self.at,
            "times": self.times,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        return cls(
            stage=data["stage"],
            kind=data.get("kind", "exception"),
            at=data.get("at", 1),
            times=data.get("times", 1),
        )


class FaultPlan:
    """A set of fault specs plus per-stage invocation counters.

    Counters belong to the plan, not the process: installing a fresh plan
    (or calling :meth:`reset`) restarts the deterministic schedule, which
    is what replay relies on.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._counters: Dict[str, int] = {}
        self._fired: List[Tuple[str, str, int]] = []
        self._lock = threading.Lock()

    # -- construction ----------------------------------------------------

    @classmethod
    def single(
        cls, stage: str, kind: str = "exception", at: int = 1,
        times: int = 1,
    ) -> "FaultPlan":
        """The chaos matrix's unit: one fault at one place."""
        return cls([FaultSpec(stage=stage, kind=kind, at=at, times=times)])

    # -- runtime ---------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._fired.clear()

    @property
    def fired(self) -> List[Tuple[str, str, int]]:
        """(stage, kind, invocation) triples of faults that fired."""
        with self._lock:
            return list(self._fired)

    def fire(self, stage: str) -> Optional[FaultSpec]:
        """Advance the stage counter; return the spec that fires, if any.

        ``exception`` kinds are raised here so call sites need no
        special-casing; data-shaped kinds are returned for the call site
        to apply.
        """
        with self._lock:
            invocation = self._counters.get(stage, 0) + 1
            self._counters[stage] = invocation
            hit: Optional[FaultSpec] = None
            for spec in self.specs:
                if spec.stage == stage and spec.fires_at(invocation):
                    hit = spec
                    break
            if hit is not None:
                self._fired.append((stage, hit.kind, invocation))
        if hit is not None and hit.kind == "exception":
            raise InjectedFaultError(
                stage,
                f"injected {hit.kind} fault in stage {stage!r} "
                f"(invocation {invocation})",
            )
        return hit

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict:
        return {"specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        return cls([FaultSpec.from_dict(d) for d in data.get("specs", [])])

    def describe(self) -> str:
        if not self.specs:
            return "fault plan: empty"
        return "fault plan: " + ", ".join(
            f"{s.stage}/{s.kind}@{s.at}"
            + (f"x{s.times}" if s.times != 1 else "")
            for s in self.specs
        )


# -- the process-wide injection point --------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the dynamic extent of the block.

    Counters reset on entry, so ``with inject_faults(plan)`` around an
    identical pipeline run fires identically — the replay guarantee.
    """
    global _ACTIVE
    previous = _ACTIVE
    plan.reset()
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def maybe_inject(stage: str) -> Optional[FaultSpec]:
    """The per-stage hook: a no-op unless a plan is installed.

    Raises :class:`~repro.errors.InjectedFaultError` for ``exception``
    faults; returns the :class:`FaultSpec` for data-shaped faults the
    call site must apply; returns ``None`` otherwise.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(stage)
