"""Backend selection: which tracer/metrics implementation is active.

Observability is **off by default** and the disabled path is a no-op
backend (see :mod:`.tracer` / :mod:`.metrics`), so production compiles
pay nothing measurable (asserted by
``benchmarks/bench_observability_overhead.py``).

Enablement, in precedence order:

1. :func:`configure` / the :func:`capture` context manager (explicit API,
   used by the ``repro trace`` / ``repro stats`` commands and tests);
2. environment variables read once at import:
   ``REPRO_TRACE`` (tracing) and ``REPRO_METRICS`` (metrics).  Any value
   other than ``""``/``0``/``false``/``no``/``off`` counts as on.

Mapping provenance has no switch: a compile's record is built on first
request from the compile's own search results
(:meth:`~repro.runtime.session.CompiledProgram.provenance`).

Call sites fetch the active backend per invocation
(``get_tracer().span(...)``), so flipping the backends mid-process takes
effect immediately — no caching of stale handles.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from .tracer import NULL_TRACER, NullTracer, Tracer

TracerLike = Union[Tracer, NullTracer]
RegistryLike = Union[MetricsRegistry, NullRegistry]


def _env_truthy(name: str) -> bool:
    value = os.environ.get(name, "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


_LOCK = threading.Lock()
_TRACER: TracerLike = (
    Tracer() if _env_truthy("REPRO_TRACE") else NULL_TRACER
)
_METRICS: RegistryLike = (
    MetricsRegistry() if _env_truthy("REPRO_METRICS") else NULL_REGISTRY
)


def get_tracer() -> TracerLike:
    """The active tracer backend (hot path: a module-global read)."""
    return _TRACER


def get_metrics() -> RegistryLike:
    """The active metrics backend (hot path: a module-global read)."""
    return _METRICS


def tracing_enabled() -> bool:
    return _TRACER.enabled


def metrics_enabled() -> bool:
    return _METRICS.enabled


def configure(
    tracing: Optional[bool] = None,
    metrics: Optional[bool] = None,
) -> None:
    """Install or remove backends.  ``None`` leaves a setting unchanged.

    Enabling tracing installs a *fresh* tracer (empty event list); use
    :func:`capture` when the previous backend must be restored.
    """
    global _TRACER, _METRICS
    with _LOCK:
        if tracing is not None:
            _TRACER = Tracer() if tracing else NULL_TRACER
        if metrics is not None:
            _METRICS = MetricsRegistry() if metrics else NULL_REGISTRY


@dataclass
class Observation:
    """The live backends handed to a :func:`capture` block."""

    tracer: Tracer
    metrics: MetricsRegistry


@dataclass
class StageScope:
    """What :func:`instrumented_stage` hands to the stage body.

    ``span`` is the live tracer span (``scope.span.set(...)`` works as
    usual); ``fault`` is whatever
    :func:`repro.resilience.faults.maybe_inject` returned — ``None``
    almost always, or the data-shaped fault spec the stage must apply
    itself (memo corruption, cost poisoning).
    """

    span: object
    fault: object = None

    def set(self, **attrs: object) -> None:
        self.span.set(**attrs)


@contextmanager
def instrumented_stage(
    stage: str,
    span_name: Optional[str] = None,
    inject: bool = True,
    **attrs: object,
) -> Iterator[StageScope]:
    """One tracer span + one fault-injection point, the way every
    pipeline stage opens.

    Replaces the boilerplate each stage used to repeat::

        from ..observability import get_tracer
        from ..resilience.faults import maybe_inject
        with get_tracer().span("optimize", ...) as span:
            maybe_inject("optimizer")

    ``stage`` names the fault-injection point (one of
    :data:`repro.resilience.faults.STAGES`); ``span_name`` defaults to
    it.  ``inject=False`` keeps the span but skips the injection point
    (stages with no entry in the fault matrix).  ``maybe_inject`` is
    imported lazily so this module never pulls the resilience layer in
    at import time.
    """
    tracer = get_tracer()
    with tracer.span(span_name or stage, **attrs) as span:
        fault = None
        if inject:
            from ..resilience.faults import maybe_inject

            fault = maybe_inject(stage)
        yield StageScope(span=span, fault=fault)


@contextmanager
def capture() -> Iterator[Observation]:
    """Run a block with fresh tracing + metrics, restoring the previous
    backends afterwards (exception-safe).  The CLI commands and the
    integration tests are built on this."""
    global _TRACER, _METRICS
    with _LOCK:
        prev = (_TRACER, _METRICS)
        _TRACER = Tracer()
        _METRICS = MetricsRegistry()
        observation = Observation(tracer=_TRACER, metrics=_METRICS)
    try:
        yield observation
    finally:
        with _LOCK:
            _TRACER, _METRICS = prev
