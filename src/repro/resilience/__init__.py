"""Resilience subsystem: budgets, fallbacks, fault injection, replayable
failure reports, and the transport backoff schedule.

The compilation pipeline (analysis → search → optimization → codegen →
simulation/execution) is wrapped so that a failed or over-budget stage
costs one request a slower mapping — the conservative fallback — or a
typed :class:`~repro.errors.ReproError` carrying a replayable
:class:`FailureReport`, never a bare traceback or a silently wrong
result.  ``docs/robustness.md`` is the design document; the chaos matrix
(``repro chaos``, ``tests/resilience/``) is the enforcement.
"""

from .breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    CircuitBreaker,
)
from .budget import Budget, BudgetExhaustedError
from .chaos import ChaosCell, ChaosMatrixResult, run_chaos_matrix
from .fallback import FALLBACK_OUTER_BLOCK, conservative_fallback_mapping
from .faults import (
    FAULT_MATRIX,
    FLEET_FAULT_KINDS,
    FLEET_FAULT_MATRIX,
    KINDS,
    PIPELINE_STAGES,
    STAGES,
    FaultPlan,
    FaultSpec,
    active_plan,
    inject_faults,
    maybe_inject,
)

# NOTE: ``repro.resilience.fleet_chaos`` (ChaosBackend, the fleet chaos
# campaign) is deliberately not imported here — it depends on
# ``repro.service``, which itself imports this package.  Import it
# directly: ``from repro.resilience.fleet_chaos import ...``.
from .reports import (
    FailureReport,
    ReplayOutcome,
    attach_report,
    build_report,
    load_failure_report,
    replay_failure_report,
    write_failure_report,
)
from .retry import backoff_delays

__all__ = [
    "Budget",
    "BudgetExhaustedError",
    "ChaosCell",
    "ChaosMatrixResult",
    "run_chaos_matrix",
    "FALLBACK_OUTER_BLOCK",
    "conservative_fallback_mapping",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_CODES",
    "CircuitBreaker",
    "FAULT_MATRIX",
    "FLEET_FAULT_KINDS",
    "FLEET_FAULT_MATRIX",
    "KINDS",
    "PIPELINE_STAGES",
    "STAGES",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "inject_faults",
    "maybe_inject",
    "FailureReport",
    "ReplayOutcome",
    "attach_report",
    "build_report",
    "load_failure_report",
    "replay_failure_report",
    "write_failure_report",
    "backoff_delays",
]
