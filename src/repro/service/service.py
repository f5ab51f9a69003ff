"""The compile service: the admission core over a worker pool that runs
the pipeline.

:class:`CompileService` admits requests through
:class:`~repro.service.admission.Admission` (digest, shed, store hit,
single-flight join, bounded queue) and adds only its own work::

    worker:
      store re-check (another process may have filled it) ── hit
      run the pipeline under a per-request Budget (conservative fallback
        on exhaustion — one pathological program degrades itself, it
        does not stall the queue)
      persist the artifact (the store files its recipe too) and hand on
        the body it wrote

Two cache layers cooperate: the artifact store
(:mod:`repro.service.store`) serves *identical* requests across
restarts, and the single-flight table collapses *concurrent identical*
requests into one pipeline run.
The cache dir holds only the store's verified objects.

Every count lives once, in the service's own registry
(:attr:`~repro.service.admission.Admission.metrics`):
:meth:`CompileService.stats` is a view over it, and ``/v1/metrics``
serves it merged with the process registry.  Every stage runs under
tracer spans whenever observability is enabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .. import config as _config
from ..observability import get_tracer
from ..resilience.budget import Budget
from .admission import Admission, Job, Ticket
from .api import STATUS_HIT, STATUS_MISS, CompileOutcome, CompileRequest
from .store import (
    ArtifactStore,
    CompileArtifact,
    StoredDocument,
    build_artifact,
)


@dataclass
class ServiceConfig:
    """Tunables for one :class:`CompileService` instance."""

    workers: int = _config.DEFAULT_SERVICE_WORKERS
    queue_limit: int = _config.DEFAULT_SERVICE_QUEUE_LIMIT
    #: Root of the persistent artifact store; ``None`` disables
    #: persistence (in-flight dedup still applies).
    cache_dir: Optional[str] = None
    #: Per-request search budget (conservative fallback on exhaustion).
    deadline_s: Optional[float] = _config.DEFAULT_REQUEST_DEADLINE_S


class CompileService(Admission):
    """A long-lived, thread-safe compilation service.

    ``compile_fn(request, digest) -> CompileArtifact`` is injectable so
    tests can gate execution deterministically; the default runs the real
    session pipeline.
    """

    label = "compile service"
    prefix = "service"
    miss_key = "cache_misses"
    counters = {
        "requests": "service.requests",
        "cache_hits": "service.cache.hits",
        "cache_misses": "service.cache.misses",
        #: Misses reclassified as hits at execution time because a
        #: concurrent process persisted the artifact first.
        "late_hits": "service.cache.late_hits",
        "coalesced": "service.singleflight.coalesced",
        "executions": "service.executions",
        "errors": "service.errors",
        "queue_rejections": "service.queue.rejections",
        #: Requests whose propagated deadline expired before a worker
        #: could run them — shed with a typed outcome, never compiled.
        "deadline_shed": "service.deadline.shed",
    }

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        compile_fn: Optional[
            Callable[[CompileRequest, str], CompileArtifact]
        ] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._compile_fn = compile_fn or self._default_compile
        self.store: Optional[ArtifactStore] = (
            ArtifactStore(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )
        super().__init__(self.config.workers, self.config.queue_limit)

    # -- public API ------------------------------------------------------

    def submit(self, request: CompileRequest) -> Ticket:
        """Admit one request; returns immediately with a :class:`Ticket`.

        Raises :class:`~repro.errors.RuntimeConfigError` (bad request),
        :class:`~repro.errors.QueueFullError` (admission queue at its
        bound), or :class:`~repro.errors.ServiceError` (closed service).
        """
        return self._admit(request)

    def clear_cache(self) -> int:
        """Drop every stored artifact; returns how many were removed."""
        return self.store.clear() if self.store is not None else 0

    @property
    def executions(self) -> int:
        """How many times the pipeline actually ran (misses that weren't
        filled by another process before a worker picked them up)."""
        return self._tallies["executions"].value

    def stats(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of service health."""
        snapshot: Dict[str, Any] = {
            "workers": self.config.workers,
            **self._admission_stats(),
        }
        if self.store is not None:
            snapshot["store"] = self.store.stats()
        return snapshot

    def close(self, save: bool = True) -> None:
        """Drain workers.  Every admitted job is resolved before this
        returns (see :meth:`~repro.service.admission.Admission._shutdown`).

        ``save`` has no effect: nothing but the store outlives the
        process, and the store is written as each artifact completes.
        It is kept because callers such as ``perfbench/run.py`` still
        pass ``save=False``.
        """
        self._shutdown()

    # -- admission hooks -------------------------------------------------

    def _lookup(
        self, digest: str
    ) -> Optional[Tuple[StoredDocument, Optional[str]]]:
        artifact = self.store.get(digest) if self.store is not None else None
        if artifact is None:
            return None
        self._count("cache_hits")
        return artifact, None

    def _execute(self, job: Job) -> CompileOutcome:
        # Deadline enforcement at the admission queue: a job whose
        # caller budget expired while it waited is shed before it can
        # touch a worker — before the executions counter, before the
        # pipeline, before the store.  Compiling it would burn a worker
        # on an answer nobody is waiting for.
        if job.expired():
            waited_s = time.perf_counter() - job.submitted_at
            return self._shed(
                job.digest, job.trace_id, "worker",
                "deadline expired before a worker picked the job up "
                f"(queued {waited_s:.3f}s); shed without compiling",
                waited_s=waited_s,
            )
        # Another process sharing the cache dir may have persisted this
        # artifact while the job sat in the queue.
        if self.store is not None:
            artifact = self.store.get(job.digest)
            if artifact is not None:
                # Admission counted this digest as a miss; now that it
                # is served from the store, reclassify so the hit/miss
                # counters agree with the outcome statuses.
                with self._lock:
                    self._tallies["late_hits"].inc()
                    self._tallies["cache_hits"].inc()
                    self._tallies["cache_misses"].inc(-1)
                return CompileOutcome(
                    digest=job.digest, status=STATUS_HIT, artifact=artifact
                )
        with get_tracer().span(
            "service.execute",
            app=job.request.app or "<ir>",
            strategy=job.request.strategy,
        ):
            self._count("executions")
            artifact = self._compile_fn(job.request, job.digest)
        if self.store is not None:
            self.store.put(artifact)
        return CompileOutcome(
            digest=job.digest, status=STATUS_MISS, artifact=artifact.document()
        )

    def _default_compile(
        self, request: CompileRequest, digest: str
    ) -> CompileArtifact:
        from ..runtime.session import GpuSession

        # The canonical program the digest hashed: codegen output (and so
        # the stored artifact) is a pure function of the digest, no
        # matter which process or fleet backend runs the pipeline.
        program, device, sizes = request.compile_inputs(digest)
        budget = None
        if self.config.deadline_s is not None:
            budget = Budget(deadline_s=self.config.deadline_s)
        session = GpuSession(
            device=device,
            strategy=request.strategy,
            flags=request.flags,
            budget=budget,
        )
        start = time.perf_counter()
        compiled = session.compile(program, **sizes)
        compile_ms = (time.perf_counter() - start) * 1e3
        return build_artifact(digest, compiled, compile_ms)
