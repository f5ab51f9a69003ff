"""The compile fleet: a digest-sharded front-end router over N backends.

One process amortizes compilation across requests; this layer amortizes
it across a *fleet*.  The paper's premise makes compile requests ideal
shard keys: the locality-aware mapping search is deterministic given the
canonical IR digest, so any backend produces a byte-identical artifact
for a digest and requests can be placed purely by content address.

:class:`FleetRouter` admits requests through
:class:`~repro.service.admission.Admission`, the core it shares with the
per-process service: its cache tiers are the hot LRU, then the shared
disk store (a store hit refills the LRU).  A queued job is dispatched::

    dispatcher:
      walk the ring's preference order for the digest
        backend dead / unreachable  →  mark dead, reroute to next node
        backend saturated (503)     →  jittered backoff, next node
        typed pipeline failure      →  final (retrying cannot fix it)
      success: stamp served_by, fill the LRU, resolve every joined waiter

The backend that ran the pipeline wrote the artifact to the store the
router reads (both fleet builders give router and backends one store
root), so the router never writes the store itself.

Single-flight is *fleet-wide* by construction: the router's in-flight
table coalesces identical concurrent submissions before any backend
sees them, and consistent hashing sends the survivors of distinct
router processes for one digest to the same backend, whose own
single-flight table collapses them again.  Either layer alone bounds
the pipeline runs per digest to one per process; together they bound it
to one per fleet.

Backends come in two shapes: :class:`LocalBackend` wraps an in-process
:class:`~repro.service.service.CompileService` (tests, ``repro fleet
serve``), :class:`HttpBackend` wraps a :class:`ServiceClient` against a
separately running server (the deployment shape; ``spawn_http_fleet``
boots those as subprocesses).  The router only sees the one-method
contract ``compile(request) -> CompileOutcome``.

Failure semantics: transport errors mark a backend dead and reroute;
503 saturation backs off (deterministic full jitter, seeded by the
digest so concurrent routers don't herd) and tries the next ring node
without declaring death; typed pipeline errors are answers, not
failures — they resolve the waiters unchanged.  A request is only
answered with a :class:`~repro.errors.ServiceError` outcome after every
preference-order attempt is exhausted, and every reroute is counted
once, in the router's ``fleet.reroutes`` counter that ``stats()`` and
``/v1/metrics`` both read.

Self-healing:

* **Health-checked membership** — a background prober hits every
  backend's ``/v1/health`` each ``probe_interval_s`` and feeds a
  per-backend :class:`~repro.resilience.breaker.CircuitBreaker`
  (closed → open on consecutive failures → half-open probe → readmit).
  Death is not one-way: a restarted backend is readmitted within a few
  probe intervals, without operator action.
* **Deadline propagation** — ``CompileRequest.deadline_s`` travels on
  the wire; the router sheds expired jobs with a typed 504-style
  outcome, caps every backoff sleep at the remaining budget, and
  forwards the *remaining* budget to each backend, whose admission
  queue sheds expired work before it can reach a worker.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import config as _config
from ..analysis.cache import LRUCache
from ..errors import QueueFullError, ReproError, ServiceError
from ..observability import (
    emit_event,
    get_tracer,
    make_fragment,
    merge_snapshots,
    stitch_fragments,
)
from ..resilience.breaker import (
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    CircuitBreaker,
)
from ..resilience.retry import backoff_delays
from .admission import Admission, Job, Ticket, error_outcome
from .api import STATUS_ERROR, CompileOutcome, CompileRequest
from .client import ServiceClient
from .router import HashRing
from .service import CompileService, ServiceConfig
from .store import ArtifactStore, CompileArtifact, StoredDocument

#: ``served_by`` stamps for outcomes the router answered itself.
SERVED_BY_LRU = "router:lru"
SERVED_BY_STORE = "router:store"

#: Per-backend counters, ``fleet.shard.<backend>.<key>`` in the router
#: registry.  ``stats()["backends"][b]["failures"]`` is the sum of the
#: two failure causes.
SHARD_COUNTERS = (
    "served", "failures_saturation", "failures_transport", "reroutes_from",
)


# -- backends ------------------------------------------------------------


class Backend:
    """One fleet member, as the router sees it; it reports its own
    counters (:meth:`metrics_snapshot`) to the fleet aggregate."""

    name: str

    def compile(self, request: CompileRequest) -> CompileOutcome:
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def mark_dead(self) -> None:
        raise NotImplementedError

    def mark_alive(self) -> None:
        """Readmit a backend the prober found healthy again.  The
        default is a no-op for backends whose liveness is intrinsic
        (:class:`LocalBackend` tracks its service's closed flag)."""

    def probe(self) -> Dict[str, Any]:
        """One health check; raises :class:`~repro.errors.ServiceError`
        when the backend is not serving.  The default consults the local
        liveness flag only — real backends ask the server itself, which
        is what makes readmission after a restart possible."""
        if not self.alive():
            raise ServiceError(f"backend {self.name} is not alive")
        return {"ok": True}

    def metrics_snapshot(self) -> Optional[Dict[str, Any]]:
        """This backend's metrics snapshot, or ``None`` when it cannot
        be read (the aggregate then lists the backend as ``missing``)."""
        return None

    def trace_fragment(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """This backend's share of a distributed trace, or ``None`` (no
        events for the id, tracing off, or — for a
        :class:`LocalBackend` — the events already live in the router
        process's own fragment)."""
        return None

    def close(self) -> None:
        raise NotImplementedError


class LocalBackend(Backend):
    """An in-process :class:`CompileService` as a fleet member."""

    def __init__(self, name: str, service: CompileService) -> None:
        self.name = name
        self.service = service

    def compile(self, request: CompileRequest) -> CompileOutcome:
        return self.service.compile(request)

    def alive(self) -> bool:
        return not self.service.closed

    def mark_dead(self) -> None:
        # Liveness already tracks the service's closed flag; nothing to
        # record separately.
        pass

    def probe(self) -> Dict[str, Any]:
        if self.service.closed:
            raise ServiceError(f"backend {self.name} is closed")
        return self.service.health()

    def metrics_snapshot(self) -> Optional[Dict[str, Any]]:
        # The service's own registry only: the process registry it
        # shares with the router is in the router's snapshot, once.
        return self.service.metrics.to_dict()

    def close(self) -> None:
        self.service.close()

    def kill(self) -> None:
        """Death for failover tests: an in-process service has nothing
        more abrupt than closing."""
        self.close()


class HttpBackend(Backend):
    """A remote compile server as a fleet member.

    The client runs with zero transport retries: the *router* owns the
    retry policy, and it retries on a different node.
    """

    def __init__(
        self,
        name: str,
        url: str,
        timeout: float = 120.0,
        process: Optional[subprocess.Popen] = None,
        probe_timeout: float = _config.DEFAULT_FLEET_PROBE_TIMEOUT_S,
    ) -> None:
        self.name = name
        self.url = url
        # Dispatcher threads hammer one backend with many small
        # requests; per-request TCP handshakes would make the router the
        # bottleneck, so reuse connections (one per dispatcher thread).
        self.client = ServiceClient(
            url, timeout=timeout, retries=0, keep_alive=True
        )
        # Separate probe client with a short timeout: a hung backend
        # must cost the prober ``probe_timeout``, not the full request
        # timeout, or one wedged node stalls the whole probe round.
        self._probe_client = ServiceClient(
            url, timeout=probe_timeout, retries=0, keep_alive=True
        )
        self.process = process
        self._dead = False

    def compile(self, request: CompileRequest) -> CompileOutcome:
        return self.client.compile(request)

    def alive(self) -> bool:
        return not self._dead

    def mark_dead(self) -> None:
        self._dead = True

    def mark_alive(self) -> None:
        self._dead = False

    def probe(self) -> Dict[str, Any]:
        # Deliberately ignores the local ``_dead`` flag: the probe asks
        # the *server*, so a backend that was killed and restarted on
        # the same address passes and gets readmitted.
        return self._probe_client.health_detail()

    def metrics_snapshot(self) -> Optional[Dict[str, Any]]:
        # Scrapes are best-effort: an unreachable backend degrades the
        # aggregate (it shows up in ``missing``), never fails it.
        try:
            return self._probe_client.metrics().get("metrics")
        except ReproError:
            return None

    def trace_fragment(self, trace_id: str) -> Optional[Dict[str, Any]]:
        try:
            fragment = self._probe_client.trace(trace_id, raw=True)
        except ReproError:
            return None
        if not fragment or not fragment.get("events"):
            return None
        # The server names its fragment generically; the router knows
        # which fleet member it is talking to.
        fragment["process"] = self.name
        return fragment

    def close(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)

    def kill(self) -> None:
        """SIGKILL the server process (failover tests)."""
        self._dead = True
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)


# -- router --------------------------------------------------------------


@dataclass
class FleetConfig:
    """Tunables for one :class:`FleetRouter`."""

    #: Hot in-memory artifact entries; 0 disables the tier.
    lru_capacity: int = _config.DEFAULT_FLEET_LRU_CAPACITY
    #: Reroute attempts beyond the first (a request touches at most
    #: ``retries + 1`` backends before it is answered with an error).
    retries: int = _config.DEFAULT_FLEET_RETRIES
    backoff_base_s: float = 0.05
    backoff_max_s: float = 1.0
    #: Router-side threads walking the dispatch queue.
    dispatchers: int = _config.DEFAULT_FLEET_DISPATCHERS
    #: Bounded router admission, mirroring the per-backend queues.
    queue_limit: int = _config.DEFAULT_FLEET_QUEUE_LIMIT
    #: Root of the shared content-addressed store the router reads
    #: before dispatching; ``None`` skips the disk tier router-side.
    cache_dir: Optional[str] = None
    #: Background health-probe cadence; <= 0 disables the prober (tests
    #: drive :meth:`FleetRouter.probe_backends` directly instead).
    probe_interval_s: float = _config.DEFAULT_FLEET_PROBE_INTERVAL_S
    #: Consecutive failures that trip a backend's breaker open, and how
    #: long an open breaker cools down before its half-open probe.
    breaker_failure_threshold: int = (
        _config.DEFAULT_BREAKER_FAILURE_THRESHOLD
    )
    breaker_reset_timeout_s: float = _config.DEFAULT_BREAKER_RESET_TIMEOUT_S
    #: Clock the circuit breakers read; injectable so breaker state
    #: transitions are testable with a fake clock and zero sleeps.
    clock: Callable[[], float] = time.monotonic


class FleetRouter(Admission):
    """Front-end router: shard by digest, coalesce fleet-wide, fail over.

    ``owns_backends=True`` makes :meth:`close` also close every backend
    (the helpers that build whole fleets set it).
    """

    label = "fleet router"
    prefix = "fleet"
    where_prefix = "fleet"
    counters = {
        "requests": "fleet.requests",
        "lru_hits": "fleet.lru.hits",
        #: Misses and evictions of an enabled LRU tier; a disabled
        #: tier records nothing.
        "lru_misses": "fleet.lru.misses",
        "lru_evictions": "fleet.lru.evictions",
        "store_hits": "fleet.store.hits",
        "misses": "fleet.misses",
        "coalesced": "fleet.coalesced",
        "queue_rejections": "fleet.queue.rejections",
        "reroutes": "fleet.reroutes",
        #: Reroutes split by what pushed the request off its primary:
        #: ``saturation`` (503s/shedding — the node is alive, just
        #: busy) vs ``transport`` (unreachable/dead).  The totals
        #: column alone made a saturated fleet look like a broken
        #: one; the split tells an operator which knob to turn.
        "reroutes_saturation": "fleet.reroutes.saturation",
        "reroutes_transport": "fleet.reroutes.transport",
        "errors": "fleet.errors",
        "completed": "fleet.completed",
        #: Jobs answered with the typed 504-style shed outcome
        #: because the caller's deadline budget ran out router-side.
        "deadline_shed": "fleet.deadline.shed",
        #: Health probes issued, breaker trips, and backends
        #: readmitted (dead -> alive or breaker reclosed).
        "probes": "fleet.probes",
        "breaker_opened": "fleet.breaker.opened",
        "readmissions": "fleet.breaker.readmitted",
        "backend_deaths": "fleet.backend.deaths",
    }

    def __init__(
        self,
        backends: Sequence[Backend],
        config: Optional[FleetConfig] = None,
        owns_backends: bool = False,
    ) -> None:
        if not backends:
            raise ServiceError("a fleet needs at least one backend")
        names = [backend.name for backend in backends]
        if len(set(names)) != len(names):
            raise ServiceError(f"backend names must be unique: {names}")
        self.config = config or FleetConfig()
        self.backends: Dict[str, Backend] = {b.name: b for b in backends}
        self.ring = HashRing(names)
        #: The hot tier: digest -> body-only StoredDocument (canonical
        #: JSON bytes a hit splices into the response as they are).
        self.lru = LRUCache(self.config.lru_capacity)
        self.store: Optional[ArtifactStore] = (
            ArtifactStore(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )
        self._owns_backends = owns_backends
        #: Last successful health-probe payload per backend (queue
        #: depth, saturation) — the prober already fetches it; stashing
        #: it lets ``stats()``/``fleet top`` show per-backend load
        #: without issuing extra RPCs.
        self._last_health: Dict[str, Optional[Dict[str, Any]]] = {
            name: None for name in names
        }
        #: Per-backend circuit breakers: the self-healing replacement
        #: for one-way mark_dead.  Dispatch outcomes and health probes
        #: both record here; the prober readmits via half-open probes.
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                reset_timeout_s=self.config.breaker_reset_timeout_s,
                clock=self.config.clock,
            )
            for name in names
        }
        super().__init__(self.config.dispatchers, self.config.queue_limit)
        self._probe_stop = threading.Event()
        self._prober: Optional[threading.Thread] = None
        if self.config.probe_interval_s and self.config.probe_interval_s > 0:
            self._prober = threading.Thread(
                target=self._probe_loop, name="fleet-prober", daemon=True
            )
            self._prober.start()

    # -- public API ------------------------------------------------------

    def submit(self, request: CompileRequest) -> Ticket:
        """Admit one request; returns immediately with a :class:`Ticket`.

        Raises the same typed errors as
        :meth:`~repro.service.service.CompileService.submit`:
        ``RuntimeConfigError``/``IRError`` for bad requests,
        :class:`~repro.errors.QueueFullError` when the router's own
        admission bound is hit, :class:`~repro.errors.ServiceError`
        after :meth:`close`.
        """
        return self._admit(request)

    def submit_many(self, requests: Sequence[CompileRequest]) -> List[Ticket]:
        """Batch admission: one ticket per request, in order.

        Never raises per-request errors mid-batch — a request the
        router cannot admit (bad app, malformed IR, admission bound)
        gets a ticket already resolved with the typed error outcome, so
        a campaign always gets exactly ``len(requests)`` answers.
        """
        tickets: List[Ticket] = []
        for request in requests:
            try:
                tickets.append(self.submit(request))
            except ReproError as exc:
                self._count("errors")
                tickets.append(
                    Ticket.resolved(error_outcome("", exc), STATUS_ERROR)
                )
        return tickets

    def clear_cache(self) -> int:
        """Drop the LRU tier and every stored artifact (router + any
        backend store sharing the directory); returns disk artifacts
        removed."""
        self.lru.clear()
        return self.store.clear() if self.store is not None else 0

    def health(self) -> Dict[str, Any]:
        """The ``/v1/health`` payload for the fleet front-end: the same
        shape a single server answers with, so probers cannot tell the
        difference, plus per-backend liveness and breaker state.  The
        fleet is ``ok`` while it can still serve — at least one backend
        alive with a non-open breaker."""
        snapshot = super().health()
        backends = {
            name: {
                "alive": backend.alive(),
                "breaker": self._breakers[name].state,
            }
            for name, backend in self.backends.items()
        }
        snapshot["ok"] = snapshot["ok"] and any(
            b["alive"] and b["breaker"] != BREAKER_OPEN
            for b in backends.values()
        )
        snapshot["backends"] = backends
        return snapshot

    def stats(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of fleet health: a view over the
        router registry plus each backend's liveness and last probe."""
        admission = self._admission_stats()
        with self._lock:
            shards = {
                name: {
                    key: self.metrics.counter(
                        f"fleet.shard.{name}.{key}"
                    ).value
                    for key in SHARD_COUNTERS
                }
                for name in self.backends
            }
            last_health = dict(self._last_health)
        backends = {
            name: {
                **shards[name],
                "failures": (
                    shards[name]["failures_saturation"]
                    + shards[name]["failures_transport"]
                ),
                "alive": backend.alive(),
                "breaker": self._breakers[name].describe(),
                "last_health": (
                    {
                        key: last_health[name].get(key)
                        for key in (
                            "queue_depth", "queue_limit", "saturation"
                        )
                    }
                    if last_health.get(name)
                    else None
                ),
            }
            for name, backend in self.backends.items()
        }
        snapshot: Dict[str, Any] = {
            "backends": backends,
            "ring": self.ring.nodes(),
            "dispatchers": self.config.dispatchers,
            "lru": {
                "capacity": self.lru.capacity,
                "entries": len(self.lru),
                "hits": admission["lru_hits"],
                "misses": admission["lru_misses"],
                "evictions": admission["lru_evictions"],
            },
            **admission,
        }
        if self.store is not None:
            snapshot["store"] = self.store.stats()
        return snapshot

    # -- fleet observability ---------------------------------------------

    def aggregated_metrics(self) -> Dict[str, Any]:
        """The fleet-wide metrics snapshot: the router's
        :meth:`metrics_snapshot` merged with every backend's own.

        A local backend reports its service's registry; an HTTP backend
        is scraped over the wire, and an unreachable one degrades the
        aggregate (listed in ``missing``), never fails it.
        """
        snapshots = {"router": self.metrics_snapshot()}
        for name, backend in self.backends.items():
            snapshots[name] = backend.metrics_snapshot()
        return {"enabled": True, "fleet": merge_snapshots(snapshots)}

    def trace_fragment(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The router process's share of a distributed trace."""
        tracer = get_tracer()
        if not tracer.enabled:
            return None
        events = tracer.events_for_trace(trace_id)
        if not events:
            return None
        return make_fragment(
            "router", events, getattr(tracer, "epoch_unix_us", None)
        )

    def trace_document(self, trace_id: str) -> Dict[str, Any]:
        """The stitched Perfetto-loadable trace for one request: the
        router's fragment plus every backend's, merged with
        cross-process parent links (:mod:`repro.observability.stitch`).
        """
        fragments: List[Dict[str, Any]] = []
        own = self.trace_fragment(trace_id)
        if own is not None:
            fragments.append(own)
        for name in self.ring.nodes():
            fragment = self.backends[name].trace_fragment(trace_id)
            if fragment is not None:
                fragments.append(fragment)
        return stitch_fragments(fragments, trace_id)

    def close(self, close_backends: Optional[bool] = None) -> None:
        """Stop the prober, drain dispatchers, resolve every admitted job
        (see :meth:`~repro.service.admission.Admission._shutdown`)."""
        self._probe_stop.set()
        if self._prober is not None:
            self._prober.join(timeout=30)
        if not self._shutdown():
            return
        should_close = (
            self._owns_backends if close_backends is None else close_backends
        )
        if should_close:
            for backend in self.backends.values():
                try:
                    backend.close()
                except ReproError:
                    pass

    # -- admission hooks -------------------------------------------------

    def _lookup(
        self, digest: str
    ) -> Optional[Tuple[StoredDocument, Optional[str]]]:
        artifact = self.lru.get(digest)
        if artifact is not None:
            self._count("lru_hits")
            return artifact, SERVED_BY_LRU
        if self.lru.enabled:
            self._count("lru_misses")
        stored = self.store.get(digest) if self.store is not None else None
        if stored is None:
            return None
        self._count("lru_evictions", self.lru.put(digest, stored))
        self._count("store_hits")
        return stored, SERVED_BY_STORE

    def _execute(self, job: Job) -> CompileOutcome:
        """Walk the ring for the job's digest, then account for where
        the answer came from and fill the LRU."""
        order = self.ring.preference(job.digest)
        primary = order[0]
        causes: List[str] = []
        outcome = self._failover_walk(job, order, causes)
        if outcome.ok:
            self._count("completed")
            # Body bytes only, whatever the backend handed back: an
            # HttpBackend's decoded dict is encoded here, once.
            if outcome.document is not None:
                evicted = self.lru.put(job.digest, outcome.document)
                self._count("lru_evictions", evicted)
        served = outcome.served_by
        if served not in self.backends:
            return outcome
        self._count_shard(served, "served")
        if served != primary:
            # Why the request left its primary: any transport failure
            # along the walk outranks saturation (it is the more
            # actionable fact).
            cause = "transport" if "transport" in causes else "saturation"
            self._count_shard(primary, "reroutes_from")
            self._count("reroutes")
            self._count(f"reroutes_{cause}")
            emit_event(
                "reroute",
                digest=job.digest,
                cause=cause,
                primary=primary,
                served_by=served,
                trace_id=job.trace_id,
            )
        return outcome

    # -- dispatch --------------------------------------------------------

    def _route_order(self, order: List[str]) -> List[str]:
        """Preference order with unhealthy nodes demoted to last resort.

        A node is healthy when its liveness flag says alive AND its
        breaker admits traffic (closed, half-open, or open past its
        cooldown).  Unhealthy nodes stay reachable as a last resort —
        when the whole fleet looks down, trying a dead node beats
        answering with an error untried.
        """
        healthy = [
            n for n in order
            if self.backends[n].alive() and self._breakers[n].available()
        ]
        rest = [n for n in order if n not in healthy]
        return healthy + rest

    def _failover_walk(
        self, job: Job, order: List[str], causes: List[str]
    ) -> CompileOutcome:
        """Walk the preference order until someone answers.

        Deadline-aware at every step: an expired job is shed before the
        next attempt, each forwarded request carries only the remaining
        budget, and backoff sleeps never exceed what is left of it.
        Each failed attempt appends its cause ("saturation" |
        "transport") to ``causes``.
        """
        # Per-digest jitter seed: concurrent routers backing off for the
        # same saturated node spread out instead of herding in lockstep.
        delays = backoff_delays(
            self.config.retries,
            base_delay=self.config.backoff_base_s,
            max_delay=self.config.backoff_max_s,
            seed=int(job.digest[:8], 16),
        )
        last_exc: Optional[BaseException] = None
        attempted: List[str] = []
        for attempt in range(self.config.retries + 1):
            if job.expired():
                return self._shed(
                    job.digest, job.trace_id, "dispatch",
                    "deadline expired during fleet dispatch "
                    f"(tried {', '.join(attempted) or 'no backend yet'}); "
                    "shed without further attempts",
                )
            candidates = self._route_order(order)
            # Most-preferred healthy node not yet tried; once every node
            # has been, cycle (a saturated node may have drained).
            name = next(
                (n for n in candidates if n not in attempted),
                candidates[attempt % len(candidates)],
            )
            backend = self.backends[name]
            attempted.append(name)
            # Forward only what is left of the (possibly join-widened)
            # budget, never the first submitter's original deadline.
            request = job.request.with_deadline(job.remaining())
            try:
                with get_tracer().span("fleet.dispatch", backend=name) as sp:
                    # The next hop's spans parent onto this dispatch
                    # span — the cross-process link the stitcher draws.
                    if job.trace_id is not None:
                        request = request.with_trace(
                            job.trace_id,
                            getattr(sp, "span_id", None)
                            or job.parent_span_id,
                        )
                    result = backend.compile(request)
            except QueueFullError as exc:
                # Saturation is transient: jittered backoff, next node,
                # backend stays in the ring and its breaker is NOT fed —
                # a saturated backend is alive, just busy.
                last_exc, cause = exc, "saturation"
            except ServiceError as exc:
                # Unreachable / shut down: dead until the prober (or a
                # later success) readmits it; the breaker accumulates
                # the failure so half-open probing is rate-limited.
                last_exc, cause = exc, "transport"
                backend.mark_dead()
                self._breaker_failure(name)
                self._count("backend_deaths")
            except ReproError as exc:
                # Typed request/pipeline error: an answer, not a routing
                # failure — retrying elsewhere cannot change it.
                outcome = error_outcome(job.digest, exc)
                outcome.served_by = name
                return outcome
            else:
                error_type = (
                    result.error.error_type
                    if result.status == STATUS_ERROR and result.error
                    else None
                )
                if error_type == "DeadlineExceededError":
                    # The backend shed on the propagated deadline: the
                    # budget is spent everywhere, so this is final.
                    self._count("deadline_shed")
                    result.served_by = name
                    return result
                if error_type not in ("ServiceError", "QueueFullError"):
                    self._record_success(name)
                    result.served_by = name
                    return result
                # The backend answered, but with its own availability
                # failure (e.g. it shut down before the job ran) —
                # retryable on another node, not a pipeline verdict.
                last_exc = ServiceError(result.error.message)
                cause = (
                    "saturation"
                    if error_type == "QueueFullError"
                    else "transport"
                )
            self._count_shard(name, f"failures_{cause}")
            causes.append(cause)
            if attempt < self.config.retries:
                delay = delays[attempt]
                remaining = job.remaining()
                if remaining is not None:
                    delay = min(delay, max(0.0, remaining))
                if delay > 0:
                    time.sleep(delay)
        return error_outcome(
            job.digest,
            ServiceError(
                f"all fleet attempts failed for digest "
                f"{job.digest[:16]}… (tried {', '.join(attempted)}): "
                f"{last_exc}"
            ),
        )

    # -- health probing --------------------------------------------------

    def probe_backends(self) -> Dict[str, bool]:
        """One probe round; returns per-backend health as observed.

        Open breakers are probed at most once per cooldown (the
        half-open slot); a backend cooling down is reported unhealthy
        without being contacted.  A passing probe readmits the backend:
        breaker reclosed, liveness flag restored — the self-healing
        counterpart to dispatch-time ``mark_dead``.
        """
        results: Dict[str, bool] = {}
        for name, backend in self.backends.items():
            breaker = self._breakers[name]
            if breaker.state == BREAKER_OPEN:
                if not breaker.begin_probe():
                    results[name] = False  # cooling down; skip this round
                    continue
                emit_event("breaker_half_open", backend=name)
            self._count("probes")
            try:
                with get_tracer().span("fleet.probe", backend=name):
                    health = backend.probe()
                with self._lock:
                    self._last_health[name] = health
            except ReproError:
                if breaker.record_failure():
                    self._count("breaker_opened")
                    emit_event(
                        "breaker_open", backend=name, via="probe"
                    )
                    backend.mark_dead()
                self._set_breaker_gauge(name)
                results[name] = False
                continue
            self._record_success(name)
            results[name] = True
        return results

    def _probe_loop(self) -> None:
        while not self._probe_stop.wait(self.config.probe_interval_s):
            if self._closed:
                return
            try:
                self.probe_backends()
            except Exception:  # pragma: no cover - prober must survive
                pass

    # -- breaker bookkeeping ---------------------------------------------

    def _record_success(self, name: str) -> None:
        """A backend served traffic (or passed a probe): readmit it."""
        readmitted = self._breakers[name].record_success()
        backend = self.backends[name]
        revived = not backend.alive()
        if revived:
            backend.mark_alive()
        if readmitted:
            emit_event("breaker_closed", backend=name)
        if readmitted or revived:
            self._count("readmissions")
            emit_event("backend_readmitted", backend=name)
        self._set_breaker_gauge(name)

    def _breaker_failure(self, name: str) -> None:
        """Feed one transport failure to a backend's breaker."""
        if self._breakers[name].record_failure():
            self._count("breaker_opened")
            emit_event("breaker_open", backend=name, via="dispatch")
        self._set_breaker_gauge(name)

    def _set_breaker_gauge(self, name: str) -> None:
        self.metrics.gauge(f"fleet.breaker.{name}.state").set(
            BREAKER_STATE_CODES[self._breakers[name].state]
        )

    # -- accounting ------------------------------------------------------

    def _count_shard(self, name: str, key: str) -> None:
        """One per-backend count, ``fleet.shard.<name>.<key>``."""
        with self._lock:
            self.metrics.counter(f"fleet.shard.{name}.{key}").inc()


# -- fleet builders ------------------------------------------------------


def local_fleet(
    backends: int,
    cache_dir: Optional[str],
    fleet_config: Optional[FleetConfig] = None,
    compile_fn: Optional[
        Callable[[CompileRequest, str], CompileArtifact]
    ] = None,
    **service_kwargs: Any,
) -> FleetRouter:
    """A router over ``backends`` in-process services sharing one store."""
    if backends < 1:
        raise ServiceError("a fleet needs at least one backend")
    members: List[Backend] = []
    for index in range(backends):
        config = ServiceConfig(cache_dir=cache_dir, **service_kwargs)
        members.append(
            LocalBackend(
                f"backend-{index}",
                CompileService(config, compile_fn=compile_fn),
            )
        )
    fleet_config = fleet_config or FleetConfig()
    if fleet_config.cache_dir is None and cache_dir is not None:
        fleet_config.cache_dir = cache_dir
    return FleetRouter(members, fleet_config, owns_backends=True)


def spawn_server_process(
    cache_dir: str,
    log_path: str,
    workers: int = 1,
    port: int = 0,
    extra_args: Sequence[str] = (),
    startup_timeout_s: float = 60.0,
) -> Tuple[subprocess.Popen, str]:
    """Boot one ``python -m repro serve`` subprocess; returns (proc, url).

    The server prints ``listening on <url>`` once bound (``--port 0``
    picks an ephemeral port); this helper tails the log until it does.
    """
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    log_file = open(log_path, "w")
    try:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(port),
                "--workers", str(workers),
                "--cache-dir", cache_dir,
                *extra_args,
            ],
            stdout=log_file,
            stderr=subprocess.STDOUT,
            env=env,
        )
    finally:
        log_file.close()
    deadline = time.time() + startup_timeout_s
    while time.time() < deadline:
        try:
            text = Path(log_path).read_text()
        except OSError:
            text = ""
        if "listening on " in text:
            url = text.split("listening on ", 1)[1].split()[0]
            return proc, url
        if proc.poll() is not None:
            raise ServiceError(
                f"compile server exited during startup "
                f"(code {proc.returncode}): {text[-500:]}"
            )
        time.sleep(0.1)
    proc.kill()
    raise ServiceError(
        f"compile server did not come up within {startup_timeout_s}s"
    )


def spawn_http_fleet(
    backends: int,
    cache_dir: str,
    log_dir: str,
    fleet_config: Optional[FleetConfig] = None,
    workers: int = 1,
    timeout: float = 120.0,
    extra_args: Sequence[str] = (),
) -> FleetRouter:
    """A router over ``backends`` subprocess servers sharing one store.

    This is the real deployment shape (independent processes, real
    sockets, real process parallelism); ``close()`` terminates the
    server processes.
    """
    members: List[Backend] = []
    os.makedirs(log_dir, exist_ok=True)
    try:
        for index in range(backends):
            proc, url = spawn_server_process(
                cache_dir,
                os.path.join(log_dir, f"backend-{index}.log"),
                workers=workers,
                extra_args=extra_args,
            )
            members.append(
                HttpBackend(
                    f"backend-{index}", url, timeout=timeout, process=proc
                )
            )
    except BaseException:
        for member in members:
            member.close()
        raise
    fleet_config = fleet_config or FleetConfig()
    if fleet_config.cache_dir is None:
        fleet_config.cache_dir = cache_dir
    return FleetRouter(members, fleet_config, owns_backends=True)


__all__ = [
    "Backend",
    "FleetConfig",
    "FleetRouter",
    "HttpBackend",
    "LocalBackend",
    "SERVED_BY_LRU",
    "SERVED_BY_STORE",
    "local_fleet",
    "spawn_http_fleet",
    "spawn_server_process",
]
