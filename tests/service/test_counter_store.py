"""One counter store: ``stats()`` and ``/v1/metrics`` read the same counts.

Every count a compile service or a fleet router keeps lives once, in the
owner's own registry (``owner.metrics``).  These tests drive each counter
through a real scenario, then compare the two surfaces key by key.
"""

import sys
import threading
import time

import pytest

from repro.errors import MappingError, QueueFullError, ServiceError
from repro.observability import capture
from repro.service import (
    STATUS_COALESCED,
    STATUS_HIT,
    STATUS_MISS,
    CompileRequest,
    CompileService,
    FleetConfig,
    FleetRouter,
    ServiceClient,
    ServiceConfig,
    local_fleet,
)
from repro.service.api import CompileOutcome
from repro.service.fleet import SERVED_BY_LRU, SERVED_BY_STORE, Backend
from repro.service.http import make_server, serve_forever
from repro.service.store import CompileArtifact

#: The per-backend counters ``stats()["backends"][b]`` reads.
SHARD_KEYS = (
    "served", "failures_saturation", "failures_transport", "reroutes_from",
)


def fake_artifact(digest: str) -> CompileArtifact:
    return CompileArtifact(
        digest=digest,
        program="fake",
        strategy="multidim",
        device="Tesla K20c",
        cost={"total_us": 1.0, "kernels": []},
    )


def request(deadline_s=None, **sizes) -> CompileRequest:
    return CompileRequest(
        app="sumRows", sizes=sizes or {"R": 64, "C": 32},
        deadline_s=deadline_s,
    )


def registry_counters(owner):
    """The owner's counters as its ``/v1/metrics`` snapshot reports
    them."""
    return owner.metrics_snapshot()["counters"]


def assert_counters_agree(owner):
    stats = owner.stats()
    counters = registry_counters(owner)
    for key, name in owner.counters.items():
        assert stats[key] == counters.get(name, 0), (key, name)
    return stats, counters


class TestServiceSurfacesAgree:
    def test_every_outcome_counts_once(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        def compile_fn(req, digest):
            if req.sizes["R"] == 96:
                started.set()
                assert gate.wait(timeout=30)
            if req.sizes["R"] == 160:
                raise MappingError("injected pipeline failure")
            return fake_artifact(digest)

        with capture():
            svc = CompileService(
                ServiceConfig(
                    workers=1, queue_limit=3,
                    cache_dir=str(tmp_path / "cache"),
                ),
                compile_fn=compile_fn,
            )
            try:
                assert svc.compile(request()).status == STATUS_MISS
                assert svc.compile(request()).status == STATUS_HIT
                assert not svc.compile(request(deadline_s=0.0)).ok
                assert not svc.compile(request(R=160, C=32)).ok

                blocker = svc.submit(request(R=96, C=32))
                assert started.wait(timeout=30)
                joined = svc.submit(request(R=96, C=32))
                assert joined.role == STATUS_COALESCED
                late = svc.submit(request(R=128, C=32))
                # Another process fills the store while the job queues.
                svc.store.put(fake_artifact(late.digest))
                tight = svc.submit(request(deadline_s=0.05, R=192, C=32))
                with pytest.raises(QueueFullError):
                    svc.submit(request(R=224, C=32))
                time.sleep(0.1)  # the queued budget lapses
                gate.set()
                assert blocker.result(timeout=30).ok
                assert joined.result(timeout=30).ok
                assert late.result(timeout=30).status == STATUS_HIT
                assert not tight.result(timeout=30).ok

                stats, counters = assert_counters_agree(svc)
                snapshot = svc.metrics_snapshot()
            finally:
                gate.set()
                svc.close()

        assert stats["requests"] == 9
        assert stats["cache_hits"] == 2
        assert stats["cache_misses"] == 4
        assert stats["late_hits"] == 1
        assert stats["coalesced"] == 1
        assert stats["executions"] == 3
        assert stats["errors"] == 3
        assert stats["queue_rejections"] == 1
        assert stats["deadline_shed"] == 2
        assert snapshot["gauges"]["service.queue.depth"] == 0
        latency = snapshot["histograms"]["service.request_ms"]
        assert latency["count"] == stats["latency_ms"]["count"] == 6


class ScriptedBackend(Backend):
    """Answers every digest, failing once for each digest in ``fail``."""

    def __init__(self, name):
        self.name = name
        self.fail = {}
        self._dead = False
        self._lock = threading.Lock()

    def compile(self, req):
        digest = req.digest()
        with self._lock:
            exc = self.fail.pop(digest, None)
        if exc is not None:
            raise exc
        return CompileOutcome(
            digest=digest,
            status=STATUS_MISS,
            artifact=fake_artifact(digest).to_dict(),
        )

    def alive(self):
        return not self._dead

    def mark_dead(self):
        self._dead = True

    def close(self):
        pass


def scripted_router(tmp_path, lru_capacity):
    backends = {name: ScriptedBackend(name) for name in ("b0", "b1", "b2")}
    router = FleetRouter(
        list(backends.values()),
        FleetConfig(
            lru_capacity=lru_capacity,
            cache_dir=str(tmp_path / "cache"),
            retries=2,
            backoff_base_s=0.001,
            backoff_max_s=0.01,
            probe_interval_s=0,
        ),
    )
    return router, backends


class TestRouterSurfacesAgree:
    @pytest.mark.parametrize("lru_capacity", [0, 4])
    def test_every_tier_and_reroute_counts_once(self, tmp_path, lru_capacity):
        with capture():
            router, backends = scripted_router(tmp_path, lru_capacity)
            try:
                # Six dispatches: a capacity-4 LRU evicts two of them.
                first = [request(R=64 + 32 * i, C=32) for i in range(6)]
                for req in first:
                    assert router.submit(req).wait(timeout=30).ok
                again = router.submit(first[-1]).wait(timeout=30)
                if lru_capacity:
                    assert again.served_by == SERVED_BY_LRU
                stored = request(R=2048, C=32)
                router.store.put(fake_artifact(stored.digest()))
                hit = router.submit(stored).wait(timeout=30)
                assert hit.served_by == SERVED_BY_STORE

                # One saturation reroute, then one transport reroute.
                for cause, exc in (
                    ("saturation", QueueFullError("queue full")),
                    ("transport", ServiceError("connection refused")),
                ):
                    req = request(R=4096 + len(cause), C=32)
                    primary = router.ring.preference(req.digest())[0]
                    backends[primary].fail[req.digest()] = exc
                    outcome = router.submit(req).wait(timeout=30)
                    assert outcome.ok and outcome.served_by != primary

                stats, counters = assert_counters_agree(router)
            finally:
                router.close()

        assert stats["store_hits"] == 1
        assert stats["reroutes_saturation"] == 1
        assert stats["reroutes_transport"] == 1
        assert stats["backend_deaths"] == 1
        assert stats["lru"] == {
            "capacity": lru_capacity,
            "entries": lru_capacity,  # a capacity-4 tier ends full
            "hits": counters.get("fleet.lru.hits", 0),
            "misses": counters.get("fleet.lru.misses", 0),
            "evictions": counters.get("fleet.lru.evictions", 0),
        }
        if lru_capacity:
            assert stats["lru_hits"] == 1
            assert stats["lru_misses"] == 9
            assert stats["lru_evictions"] == 5
        else:
            # A disabled tier records nothing.
            assert stats["lru_hits"] == stats["lru_misses"] == 0
            assert stats["lru_evictions"] == 0
        for name, entry in stats["backends"].items():
            for key in SHARD_KEYS:
                metric = f"fleet.shard.{name}.{key}"
                assert entry[key] == counters.get(metric, 0), metric
            assert entry["failures"] == (
                entry["failures_saturation"] + entry["failures_transport"]
            )
        assert sum(e["served"] for e in stats["backends"].values()) == (
            stats["misses"]
        )
        assert sum(e["failures"] for e in stats["backends"].values()) == 2
        assert sum(
            e["reroutes_from"] for e in stats["backends"].values()
        ) == 2

    def test_concurrent_lookups_count_every_one(self, tmp_path):
        router, _ = scripted_router(tmp_path, lru_capacity=4)
        requests = [request(R=64 + 32 * i, C=32) for i in range(8)]
        threads_n, per_thread = 8, 40
        errors = []

        def hammer(seed):
            try:
                for i in range(per_thread):
                    req = requests[(seed * 3 + i) % len(requests)]
                    assert router.submit(req).wait(timeout=30).ok
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(t,))
                for t in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            stats, counters = assert_counters_agree(router)
        finally:
            sys.setswitchinterval(interval)
            router.close()
        assert not errors
        lookups = threads_n * per_thread
        assert stats["requests"] == lookups
        assert stats["lru_hits"] + stats["lru_misses"] == lookups
        assert stats["lru"]["hits"] + stats["lru"]["misses"] == lookups


@pytest.fixture
def serve():
    """``serve(service)``: a live server over ``service``."""
    running = []

    def start(service):
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=serve_forever, args=(server,))
        thread.start()
        running.append((server, thread, service))
        return server

    yield start
    for server, thread, service in running:
        server.shutdown()
        thread.join(timeout=30)
        service.close()


class TestOwnersKeepSeparateCounts:
    def test_two_services_in_one_process(self, serve):
        # No capture(): each owner's registry records regardless.
        servers = [
            serve(CompileService(
                ServiceConfig(workers=1, cache_dir=None),
                compile_fn=lambda req, digest: fake_artifact(digest),
            ))
            for _ in range(2)
        ]
        for count, server in enumerate(servers, start=1):
            client = ServiceClient(server.url)
            for index in range(count):
                assert client.compile(request(R=64 + 32 * index, C=32)).ok
        for count, server in enumerate(servers, start=1):
            client = ServiceClient(server.url)
            assert client.stats()["service"]["requests"] == count
            payload = client.metrics()
            assert payload["enabled"] is True
            assert payload["metrics"]["counters"]["service.requests"] == count


class TestLocalFleetAggregate:
    def test_queue_depth_sums_each_backends_own_gauge(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        def compile_fn(req, digest):
            if req.sizes["R"] == 64:
                started.set()
                assert gate.wait(timeout=30)
            return fake_artifact(digest)

        with capture():
            fleet = local_fleet(
                2, str(tmp_path / "cache"),
                fleet_config=FleetConfig(lru_capacity=0, probe_interval_s=0),
                compile_fn=compile_fn,
            )
            try:
                held = request()
                gated = fleet.submit(held)
                assert started.wait(timeout=30)
                holder = fleet.ring.preference(held.digest())[0]
                # A request the other backend runs to completion.
                candidates = (request(R=96 + 32 * i, C=32) for i in range(64))
                other = next(
                    req for req in candidates
                    if fleet.ring.preference(req.digest())[0] != holder
                )
                assert fleet.submit(other).wait(timeout=30).ok
                depths = {
                    name: backend.service.health()["queue_depth"]
                    for name, backend in fleet.backends.items()
                }
                merged = fleet.aggregated_metrics()["fleet"]
                gate.set()
                assert gated.wait(timeout=30).ok
            finally:
                gate.set()
                fleet.close()
        assert depths[holder] == 1 and sum(depths.values()) == 1
        assert merged["gauges"]["service.queue.depth"] == 1

    def test_nothing_is_counted_twice(self, tmp_path):
        with capture() as obs:
            fleet = local_fleet(
                2, str(tmp_path / "cache"),
                fleet_config=FleetConfig(probe_interval_s=0),
            )
            try:
                for index in range(3):
                    req = request(R=64 + 32 * index, C=32)
                    assert fleet.submit(req).wait(timeout=300).ok
                merged = fleet.aggregated_metrics()["fleet"]
                backend_requests = sum(
                    backend.service.stats()["requests"]
                    for backend in fleet.backends.values()
                )
                process = obs.metrics.to_dict()["counters"]
            finally:
                fleet.close()
        assert merged["missing"] == []
        assert merged["sources"] == ["backend-0", "backend-1", "router"]
        assert backend_requests == 3
        assert merged["counters"]["service.requests"] == backend_requests
        assert merged["counters"]["fleet.requests"] == 3
        # The process registry (pipeline stages, caches) is merged once.
        assert process
        for name, value in process.items():
            assert merged["counters"][name] == value, name
