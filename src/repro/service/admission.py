"""One admission core for the compile service and the fleet router.

The mapping search is a pure function of the canonical IR digest, so
every serving layer admits a request the same way::

    submit(request)
      memoized digest                    (typed config errors surface here)
      budget already spent   ── shed ─►  typed DeadlineExceededError
      owner's cache tiers    ── hit ──►  outcome served synchronously
      in-flight table        ── dup ──►  join the running job
      queue bound            ── full ─►  QueueFullError (HTTP 503 / exit 75)
      enqueue                            worker threads drain FIFO
    worker:
      owner's _execute(job) under the job's trace context
      resolve every joined waiter; record latency

:class:`Admission` owns that sequence once: tickets, jobs, the in-flight
table with its deadline merge, the queue bound, the worker threads, the
deadline-bounded :meth:`~Admission.compile` wait, shutdown, and the
counters and latency histogram, kept once in the owner's own registry
(:attr:`Admission.metrics`) that ``stats()`` and ``/v1/metrics`` both
read.  An owner supplies only its own work:
:class:`~repro.service.service.CompileService` looks up the artifact
store and runs the pipeline; :class:`~repro.service.fleet.FleetRouter`
looks up its LRU and store and walks the hash ring.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import config as _config
from ..errors import (
    DeadlineExceededError,
    QueueFullError,
    ServiceError,
    exit_code_for,
)
from ..observability import (
    MetricsRegistry,
    emit_event,
    get_metrics,
    get_tracer,
    merge_snapshots,
    new_trace_id,
)
from .api import (
    STATUS_COALESCED,
    STATUS_ERROR,
    STATUS_HIT,
    STATUS_MISS,
    CompileError,
    CompileOutcome,
    CompileRequest,
)
from .store import StoredDocument

#: Recent request latencies kept for the ``stats()`` quantiles.
_LATENCY_WINDOW = 4096
#: How long :meth:`Admission._shutdown` waits for each worker thread.
_JOIN_TIMEOUT_S = 120.0

_STOP = object()


@dataclass
class Ticket:
    """One requester's handle on a (possibly shared) outcome.

    ``role`` records how *this* submission was classified at admission:
    ``hit`` (served from a cache tier), ``miss`` (this submission
    enqueued the job), ``coalesced`` (joined an in-flight job) or
    ``error`` (shed at admission, or refused by ``submit_many``).
    """

    digest: str
    role: str
    #: The distributed trace this submission was recorded under (``None``
    #: when tracing is off); feed it to ``repro fleet trace``.
    trace_id: Optional[str] = None
    _future: Future = field(repr=False, default_factory=Future)

    def result(self, timeout: Optional[float] = None) -> CompileOutcome:
        return self._future.result(timeout=timeout)

    wait = result

    def poll(self) -> Optional[CompileOutcome]:
        """The outcome if ready, else ``None`` (never blocks)."""
        if not self._future.done():
            return None
        return self._future.result(timeout=0)

    def done(self) -> bool:
        return self._future.done()

    @classmethod
    def resolved(cls, outcome: CompileOutcome, role: str) -> "Ticket":
        ticket = cls(
            digest=outcome.digest, role=role, trace_id=outcome.trace_id
        )
        ticket._future.set_result(outcome)
        return ticket


class Job:
    """One queued unit of work, shared by every waiter on its digest."""

    __slots__ = (
        "digest", "request", "future", "submitted_at", "deadline",
        "trace_id", "parent_span_id",
    )

    def __init__(self, digest: str, request: CompileRequest) -> None:
        self.digest = digest
        self.request = request
        self.future: Future = Future()
        self.submitted_at = time.perf_counter()
        #: Absolute ``perf_counter`` instant the caller's budget expires
        #: (``None`` = unbounded).  A joining waiter may widen it.
        self.deadline: Optional[float] = (
            None
            if request.deadline_s is None
            else self.submitted_at + request.deadline_s
        )
        #: Distributed trace context the worker thread re-activates: the
        #: admission-side request span parents the worker's spans.
        self.trace_id: Optional[str] = request.trace_id
        self.parent_span_id: Optional[str] = request.parent_span_id

    def expired(self) -> bool:
        return (
            self.deadline is not None
            and time.perf_counter() >= self.deadline
        )

    def remaining(self) -> Optional[float]:
        """Seconds of budget left (``None`` = unbounded; may be <= 0)."""
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    def join(self, deadline_s: Optional[float]) -> None:
        """Admit one more waiter with budget ``deadline_s``.

        The shared job honors the most permissive waiter: a late joiner
        with a longer (or no) budget must not be shed because the first
        submitter's deadline was tight.
        """
        if self.deadline is None:
            return
        if deadline_s is None:
            self.deadline = None
        else:
            self.deadline = max(
                self.deadline, time.perf_counter() + deadline_s
            )


class Admission:
    """The shared admission sequence; subclasses say how a job runs.

    A subclass sets the vocabulary below, implements :meth:`_lookup`
    (its cache tiers, answered at admission) and :meth:`_execute` (one
    queued job to an outcome, on a worker thread), defines ``submit`` as
    a call to :meth:`_admit` and ``close`` around :meth:`_shutdown`, and
    calls ``Admission.__init__`` last, once the state those methods read
    exists.
    """

    #: Subject of error messages ("<label> is shut down").
    label = "admission"
    #: Prefix of the admission span (``<prefix>.request``), the latency
    #: histogram (``<prefix>.request_ms``) and the queue-depth gauge.
    prefix = ""
    #: Prefix of the ``where`` field of deadline-shed and queue-rejected
    #: events ("" leaves the stage name bare and omits ``where`` from
    #: queue rejections).
    where_prefix = ""
    #: Stats key counting enqueued misses.
    miss_key = "misses"
    #: Every counter this layer keeps: ``stats()`` key -> its metric
    #: name in :attr:`metrics`, the one place the count lives.  Must
    #: include ``requests``, ``coalesced``, ``errors``,
    #: ``queue_rejections``, ``deadline_shed`` and :attr:`miss_key`.
    counters: Dict[str, str] = {}

    def __init__(self, workers: int, queue_limit: int) -> None:
        if workers < 1:
            raise ServiceError(f"{self.label} needs at least one worker")
        if queue_limit < 1:
            raise ServiceError(
                f"{self.label} needs a queue limit of at least 1"
            )
        self.queue_limit = queue_limit
        self._lock = threading.Lock()
        self._inflight: Dict[str, Job] = {}
        self._admitted = 0  # jobs enqueued or running, not yet finished
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._closed = False
        self._started_at = time.time()
        self._latencies_ms: "deque[float]" = deque(maxlen=_LATENCY_WINDOW)
        #: This owner's metrics: per instance, always recording, and
        #: every counter changes under ``_lock``.
        self.metrics = MetricsRegistry()
        self._tallies = {
            key: self.metrics.counter(name)
            for key, name in self.counters.items()
        }
        self._queue_depth = self.metrics.gauge(f"{self.prefix}.queue.depth")
        self._request_ms = self.metrics.histogram(f"{self.prefix}.request_ms")
        self._threads = [
            threading.Thread(
                target=self._work,
                name=f"{self.prefix}-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- owner hooks -----------------------------------------------------

    def _lookup(
        self, digest: str
    ) -> Optional[Tuple[StoredDocument, Optional[str]]]:
        """``(artifact document, served_by)`` from a cache tier, or
        ``None``."""
        raise NotImplementedError

    def _execute(self, job: Job) -> CompileOutcome:
        """Drive one queued job to its outcome (runs on a worker)."""
        raise NotImplementedError

    # -- admission -------------------------------------------------------

    def _admit(self, request: CompileRequest) -> Ticket:
        """Admit one request; returns immediately with a :class:`Ticket`.

        Raises :class:`~repro.errors.RuntimeConfigError` /
        :class:`~repro.errors.IRError` (bad request),
        :class:`~repro.errors.QueueFullError` (admission queue at its
        bound), or :class:`~repro.errors.ServiceError` (after close).
        """
        if self._closed:
            raise ServiceError(f"{self.label} is shut down")
        t0 = time.perf_counter()
        tracer = get_tracer()
        # Join the caller's distributed trace, or root a fresh one when
        # tracing is live (disabled tracing stays id-free).
        trace_id = request.trace_id or (
            new_trace_id() if tracer.enabled else None
        )
        with tracer.trace_context(trace_id, request.parent_span_id):
            with tracer.span(
                f"{self.prefix}.request", app=request.app or "<ir>"
            ) as span:
                digest = request.digest()
        self._count("requests")

        if request.deadline_s is not None and request.deadline_s <= 0:
            # The budget was spent before the request arrived (an
            # upstream hop forwarded its remainder): shed at admission.
            self._count("errors")
            outcome = self._shed(
                digest, trace_id, "admission",
                "deadline budget already spent at admission "
                f"({request.deadline_s:.3f}s remaining)",
            )
            return Ticket.resolved(outcome, STATUS_ERROR)

        found = self._lookup(digest)
        if found is not None:
            artifact, served_by = found
            latency_ms = (time.perf_counter() - t0) * 1e3
            self._observe_latency(latency_ms, trace_id)
            outcome = CompileOutcome(
                digest=digest,
                status=STATUS_HIT,
                artifact=artifact,
                latency_ms=latency_ms,
                served_by=served_by,
                trace_id=trace_id,
            )
            return Ticket.resolved(outcome, STATUS_HIT)

        with self._lock:
            # Re-checked under the lock: _shutdown() flips the flag
            # inside this same critical section, so a submit that wins
            # the race enqueues *before* the stop sentinels (a worker
            # still drains it) and one that loses is rejected.
            if self._closed:
                raise ServiceError(f"{self.label} is shut down")
            job = self._inflight.get(digest)
            role, key = STATUS_COALESCED, "coalesced"
            if job is not None:
                job.join(request.deadline_s)
            elif self._admitted < self.queue_limit:
                role, key = STATUS_MISS, self.miss_key
                job = Job(digest, request)
                # Worker spans parent onto this submission's request
                # span (same trace, possibly another thread).
                job.trace_id = trace_id
                job.parent_span_id = (
                    getattr(span, "span_id", None) or request.parent_span_id
                )
                self._inflight[digest] = job
                self._admitted += 1
                self._queue.put(job)
            else:
                key = "queue_rejections"
            # Counted inside the admission critical section, so the
            # counters never lag the in-flight table they describe.
            self._tallies[key].inc()
            depth = self._admitted
        if job is None:
            emit_event(
                "queue_rejected",
                digest=digest,
                queue_depth=depth,
                queue_limit=self.queue_limit,
                trace_id=trace_id,
                **({"where": self.where_prefix} if self.where_prefix else {}),
            )
            raise QueueFullError(
                f"{self.label} queue is full ({depth}/{self.queue_limit} "
                "requests admitted); retry shortly"
            )
        if role == STATUS_MISS:
            self._queue_depth.set(depth)
        # A coalesced waiter shares the running job's outcome, so it
        # shares that job's trace too.
        return Ticket(
            digest=digest, role=role, trace_id=job.trace_id,
            _future=job.future,
        )

    def compile(
        self, request: CompileRequest, timeout: Optional[float] = None
    ) -> CompileOutcome:
        """Submit and wait: the synchronous call the HTTP layer uses.

        A deadline-carrying request never waits unboundedly: when no
        explicit ``timeout`` is given the wait is capped at the request's
        budget plus a small grace (the worker-side shed normally answers
        first; the timed wait is the backstop against a wedged worker),
        and a timeout resolves to the typed shed outcome instead of an
        exception.  The job itself keeps running for any joined waiter.
        """
        ticket = self.submit(request)
        if timeout is not None or request.deadline_s is None:
            return ticket.result(timeout=timeout)
        bounded = max(0.0, request.deadline_s) + _config.DEADLINE_WAIT_GRACE_S
        try:
            return ticket.result(timeout=bounded)
        except FutureTimeoutError:
            return self._shed(
                ticket.digest, ticket.trace_id, "wait",
                f"request still pending {bounded:.3f}s after its "
                f"{request.deadline_s:.3f}s deadline budget; shed",
                deadline_s=request.deadline_s,
            )

    @property
    def closed(self) -> bool:
        """Whether close() has run; a closed layer rejects submissions
        with :class:`~repro.errors.ServiceError`."""
        return self._closed

    def health(self) -> Dict[str, Any]:
        """The ``/v1/health`` payload: liveness plus load, cheap enough
        for a per-second prober.  ``saturation`` is queue depth over the
        admission bound — 1.0 means the next miss is rejected."""
        with self._lock:
            admitted = self._admitted
        return {
            "ok": not self._closed,
            "closed": self._closed,
            "queue_depth": admitted,
            "queue_limit": self.queue_limit,
            "saturation": admitted / self.queue_limit,
            "workers": len(self._threads),
            "uptime_s": time.time() - self._started_at,
        }

    def _admission_stats(self) -> Dict[str, Any]:
        """The counters, queue state and latency quantiles of stats()."""
        with self._lock:
            counts = {
                key: counter.value for key, counter in self._tallies.items()
            }
            admitted = self._admitted
            latencies = sorted(self._latencies_ms)
        return {
            "queue_depth": admitted,
            "queue_limit": self.queue_limit,
            "uptime_s": time.time() - self._started_at,
            **counts,
            "latency_ms": latency_summary(latencies),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``/v1/metrics`` snapshot: :attr:`metrics` merged with the
        process registry (pipeline stages, caches, store) when that one
        records.  The two share no metric name."""
        process = get_metrics()
        merged = merge_snapshots({
            "owner": self.metrics.to_dict(),
            "process": process.to_dict() if process.enabled else None,
        })
        return {
            kind: merged[kind] for kind in ("counters", "gauges", "histograms")
        }

    def __enter__(self) -> "Admission":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _shutdown(self) -> bool:
        """Stop the workers and resolve every admitted job; ``False``
        when already shut down.

        Workers finish what was queued ahead of the stop sentinels;
        anything still queued afterwards (a worker died or overran the
        join timeout) is rejected with a :class:`~repro.errors.ServiceError`
        outcome so no waiter blocks forever on an abandoned future.
        """
        with self._lock:
            if self._closed:
                return False
            self._closed = True
            for _ in self._threads:
                self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=_JOIN_TIMEOUT_S)
        self._reject_queued_jobs()
        return True

    def _reject_queued_jobs(self) -> None:
        """Resolve any job the workers left behind with a typed error."""
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            if job is _STOP:
                continue
            stranded = ServiceError(
                f"{self.label} shut down before the job ran"
            )
            self._finish(job, error_outcome(job.digest, stranded))

    # -- worker side -----------------------------------------------------

    def _work(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            with get_tracer().trace_context(job.trace_id, job.parent_span_id):
                try:
                    outcome = self._execute(job)
                except Exception as exc:  # noqa: BLE001 - workers survive
                    outcome = error_outcome(job.digest, exc)
            self._finish(job, outcome)

    def _finish(self, job: Job, outcome: CompileOutcome) -> None:
        latency_ms = (time.perf_counter() - job.submitted_at) * 1e3
        outcome.latency_ms = latency_ms
        if outcome.trace_id is None:
            outcome.trace_id = job.trace_id
        if outcome.status == STATUS_ERROR:
            self._count("errors")
        self._observe_latency(latency_ms, job.trace_id)
        with self._lock:
            self._inflight.pop(job.digest, None)
            self._admitted -= 1
            admitted = self._admitted
        self._queue_depth.set(admitted)
        job.future.set_result(outcome)

    def _shed(
        self, digest: str, trace_id: Optional[str], stage: str, detail: str,
        **fields: Any,
    ) -> CompileOutcome:
        """Count and record one deadline shed; returns its typed outcome."""
        self._count("deadline_shed")
        emit_event(
            "deadline_shed",
            digest=digest,
            where=(
                f"{self.where_prefix}-{stage}" if self.where_prefix else stage
            ),
            trace_id=trace_id,
            **fields,
        )
        outcome = error_outcome(digest, DeadlineExceededError(detail))
        outcome.trace_id = trace_id
        return outcome

    # -- accounting ------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self._tallies[key].inc(amount)

    def _observe_latency(
        self, latency_ms: float, trace_id: Optional[str] = None
    ) -> None:
        with self._lock:
            self._latencies_ms.append(latency_ms)
        # The trace id rides along as the bucket's exemplar, so a slow
        # bucket in a snapshot resolves to a concrete request trace.
        self._request_ms.observe(latency_ms, exemplar=trace_id)


def error_outcome(digest: str, exc: BaseException) -> CompileOutcome:
    """Wrap an exception as a typed :class:`CompileOutcome` error.

    Shared by the per-process service and the fleet router so a failure
    carries the same error type, CLI exit code, and (when attached)
    replayable failure report regardless of which layer caught it.
    """
    report = getattr(exc, "failure_report", None)
    return CompileOutcome(
        digest=digest,
        status=STATUS_ERROR,
        error=CompileError(
            error_type=type(exc).__name__,
            message=str(exc),
            exit_code=exit_code_for(exc),
            failure_report=None if report is None else report.to_dict(),
        ),
    )


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (0.0 empty)."""
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1)))
    )
    return sorted_values[int(index)]


def latency_summary(sorted_latencies_ms: List[float]) -> Dict[str, Any]:
    """The p50/p95/p99 summary every stats surface reports."""
    return {
        "count": len(sorted_latencies_ms),
        "p50": percentile(sorted_latencies_ms, 0.50),
        "p95": percentile(sorted_latencies_ms, 0.95),
        "p99": percentile(sorted_latencies_ms, 0.99),
        "max": sorted_latencies_ms[-1] if sorted_latencies_ms else 0.0,
    }
