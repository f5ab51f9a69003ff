"""Fleet router: sharding, cache tiers, coalescing, failover.

The failover integration tests are the PR's acceptance gate: kill one
backend of three mid-campaign and the fleet must lose zero requests,
serve byte-identical artifacts, and account for every reroute.
"""

import signal
import threading
import time

import pytest

from repro.errors import QueueFullError, ServiceError
from repro.observability import get_event_log
from repro.service import (
    STATUS_ERROR,
    STATUS_HIT,
    STATUS_MISS,
    CompileRequest,
    FleetConfig,
    FleetRouter,
    ServiceClient,
    artifact_fingerprint,
    local_fleet,
)
from repro.service.fleet import (
    SERVED_BY_LRU,
    SERVED_BY_STORE,
    Backend,
    spawn_server_process,
)
from repro.service.store import ArtifactStore, CompileArtifact


def fake_artifact(digest: str) -> CompileArtifact:
    return CompileArtifact(
        digest=digest,
        program="fake",
        strategy="multidim",
        device="Tesla K20c",
        cost={"total_us": 1.0, "kernels": []},
    )


def request(**sizes) -> CompileRequest:
    return CompileRequest(app="sumRows", sizes=sizes or {"R": 64, "C": 32})


def distinct_requests(n: int, base: int = 0):
    return [request(R=64 + 32 * (base + i), C=32) for i in range(n)]


class StubBackend(Backend):
    """A scriptable fleet member for router unit tests."""

    def __init__(self, name, fail_with=None, fail_times=0, gate=None):
        self.name = name
        self.fail_with = fail_with
        self.fail_times = fail_times
        self.gate = gate
        self.calls = 0
        self._dead = False
        self._lock = threading.Lock()

    def compile(self, req):
        with self._lock:
            self.calls += 1
            calls = self.calls
        if self.gate is not None and not self.gate.wait(timeout=30):
            raise TimeoutError("test gate never opened")
        if self.fail_with is not None and (
            self.fail_times == 0 or calls <= self.fail_times
        ):
            raise self.fail_with
        digest = req.digest()
        from repro.service.api import CompileOutcome

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


class TestCacheTiers:
    def test_miss_then_lru_then_store(self, tmp_path):
        fleet = local_fleet(
            2,
            str(tmp_path / "cache"),
            fleet_config=FleetConfig(lru_capacity=4),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            first = fleet.submit(request()).wait(timeout=60)
            assert first.status == STATUS_MISS
            assert first.served_by.startswith("backend-")

            second = fleet.submit(request()).wait(timeout=30)
            assert second.status == STATUS_HIT
            assert second.served_by == SERVED_BY_LRU

            fleet.lru.clear()
            third = fleet.submit(request()).wait(timeout=30)
            assert third.status == STATUS_HIT
            assert third.served_by == SERVED_BY_STORE
            # The store hit refilled the LRU.
            fourth = fleet.submit(request()).wait(timeout=30)
            assert fourth.served_by == SERVED_BY_LRU

            stats = fleet.stats()
            assert stats["misses"] == 1
            assert stats["lru_hits"] == 2
            assert stats["store_hits"] == 1
        finally:
            fleet.close()

    def test_lru_capacity_zero_disables_hot_tier(self, tmp_path):
        fleet = local_fleet(
            1,
            str(tmp_path / "cache"),
            fleet_config=FleetConfig(lru_capacity=0),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            fleet.submit(request()).wait(timeout=60)
            outcome = fleet.submit(request()).wait(timeout=30)
            # Repeat requests still hit, but from disk, not memory.
            assert outcome.served_by == SERVED_BY_STORE
        finally:
            fleet.close()

    def test_fleet_miss_writes_the_store_once(self, tmp_path, monkeypatch):
        # Router and backends share one store root: the backend that
        # ran the pipeline writes the artifact, the router does not.
        puts = []
        original_put = ArtifactStore.put

        def counting_put(store, artifact):
            puts.append(artifact.digest)
            return original_put(store, artifact)

        monkeypatch.setattr(ArtifactStore, "put", counting_put)
        fleet = local_fleet(
            2,
            str(tmp_path / "cache"),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            outcome = fleet.submit(request()).wait(timeout=60)
            assert outcome.status == STATUS_MISS
            assert puts == [outcome.digest]
            fleet.lru.clear()
            again = fleet.submit(request()).wait(timeout=30)
            assert again.served_by == SERVED_BY_STORE
        finally:
            fleet.close()


class TestSharding:
    def test_same_digest_same_backend(self, tmp_path):
        # With caches disabled every submit dispatches; one digest must
        # always land on its ring primary.
        router = FleetRouter(
            [StubBackend(f"b{i}") for i in range(3)],
            FleetConfig(lru_capacity=0),
        )
        try:
            served = set()
            for _ in range(4):
                outcome = router.submit(request()).wait(timeout=30)
                served.add(outcome.served_by)
            assert len(served) == 1
            digest = request().digest()
            assert served == {router.ring.node_for(digest)}
            assert router.stats()["reroutes"] == 0
        finally:
            router.close()

    def test_distinct_digests_spread_over_backends(self):
        router = FleetRouter(
            [StubBackend(f"b{i}") for i in range(3)],
            FleetConfig(lru_capacity=0),
        )
        try:
            outcomes = [
                t.wait(timeout=60)
                for t in router.submit_many(distinct_requests(24))
            ]
            assert all(o.ok for o in outcomes)
            assert len({o.served_by for o in outcomes}) >= 2
        finally:
            router.close()


class TestCoalescing:
    def test_fleet_wide_single_flight(self, tmp_path):
        gate = threading.Event()
        backends = [StubBackend(f"b{i}", gate=gate) for i in range(3)]
        router = FleetRouter(backends, FleetConfig(lru_capacity=8))
        try:
            tickets = [router.submit(request()) for _ in range(8)]
            roles = [t.role for t in tickets]
            assert roles.count(STATUS_MISS) == 1
            assert roles.count("coalesced") == 7
            assert not any(t.done() for t in tickets)
            assert all(t.poll() is None for t in tickets)
            gate.set()
            outcomes = [t.wait(timeout=30) for t in tickets]
            assert sum(b.calls for b in backends) == 1
            assert len({o.digest for o in outcomes}) == 1
            assert all(o.ok for o in outcomes)
            assert router.stats()["coalesced"] == 7
        finally:
            gate.set()
            router.close()

    def test_ticket_poll_and_done(self):
        gate = threading.Event()
        router = FleetRouter(
            [StubBackend("b0", gate=gate)], FleetConfig(lru_capacity=0)
        )
        try:
            ticket = router.submit(request())
            assert not ticket.done()
            assert ticket.poll() is None
            gate.set()
            outcome = ticket.wait(timeout=30)
            assert ticket.done()
            assert ticket.poll() is outcome
        finally:
            gate.set()
            router.close()


class TestAdmission:
    def test_router_queue_bound(self):
        gate = threading.Event()
        router = FleetRouter(
            [StubBackend("b0", gate=gate)],
            FleetConfig(lru_capacity=0, queue_limit=1, dispatchers=1),
        )
        cursor = get_event_log().snapshot()["next_seq"]
        try:
            router.submit(request(R=64, C=32))
            with pytest.raises(QueueFullError):
                router.submit(request(R=128, C=32))
            # Identical digests coalesce instead of being rejected.
            joined = router.submit(request(R=64, C=32))
            assert joined.role == "coalesced"
            assert router.stats()["queue_rejections"] == 1
            digest = request(R=128, C=32).digest()
            rejected = [
                event
                for event in get_event_log().snapshot(since=cursor - 1)[
                    "events"
                ]
                if event["kind"] == "queue_rejected"
                and event["digest"] == digest
            ]
            assert [event["where"] for event in rejected] == ["fleet"]
        finally:
            gate.set()
            router.close()

    def test_submit_many_never_raises_mid_batch(self):
        router = FleetRouter([StubBackend("b0")], FleetConfig())
        try:
            requests = [
                request(R=64, C=32),
                CompileRequest(app="noSuchApp"),
                request(R=128, C=32),
            ]
            tickets = router.submit_many(requests)
            assert len(tickets) == len(requests)
            outcomes = [t.wait(timeout=30) for t in tickets]
            assert outcomes[0].ok and outcomes[2].ok
            assert outcomes[1].status == STATUS_ERROR
            assert outcomes[1].error.error_type == "RuntimeConfigError"
        finally:
            router.close()

    def test_submit_after_close_raises(self):
        router = FleetRouter([StubBackend("b0")], FleetConfig())
        router.close()
        with pytest.raises(ServiceError):
            router.submit(request())


class TestFailover:
    def test_saturated_backend_reroutes_without_death(self):
        # Every backend that owns the key sheds load once; the router
        # backs off and lands the request on the next preference node.
        digest = request().digest()
        backends = {
            name: StubBackend(name) for name in ("b0", "b1", "b2")
        }
        router = FleetRouter(
            list(backends.values()),
            FleetConfig(
                lru_capacity=0, retries=2, backoff_base_s=0.001,
                backoff_max_s=0.01,
            ),
        )
        try:
            primary, second = router.ring.preference(digest, limit=2)
            backends[primary].fail_with = QueueFullError("queue full")
            backends[primary].fail_times = 0  # always saturated
            outcome = router.submit(request()).wait(timeout=30)
            assert outcome.ok
            assert outcome.served_by == second
            stats = router.stats()
            assert stats["reroutes"] == 1
            assert stats["backends"][primary]["failures"] == 1
            assert stats["backends"][primary]["reroutes_from"] == 1
            # Saturation is transient: the backend is still in service.
            assert stats["backends"][primary]["alive"] is True
        finally:
            router.close()

    def test_transport_failure_marks_backend_dead(self):
        digest = request().digest()
        backends = {
            name: StubBackend(name) for name in ("b0", "b1", "b2")
        }
        router = FleetRouter(
            list(backends.values()),
            FleetConfig(
                lru_capacity=0, retries=2, backoff_base_s=0.001,
                backoff_max_s=0.01,
            ),
        )
        try:
            primary, second = router.ring.preference(digest, limit=2)
            backends[primary].fail_with = ServiceError("connection refused")
            outcome = router.submit(request()).wait(timeout=30)
            assert outcome.ok
            assert outcome.served_by == second
            stats = router.stats()
            assert stats["backends"][primary]["alive"] is False
            # Later requests skip the dead node without burning a retry.
            later = router.submit(request(R=96, C=32)).wait(timeout=30)
            assert later.ok
            assert later.served_by != primary
        finally:
            router.close()

    def test_pipeline_error_is_final_not_rerouted(self):
        from repro.errors import MappingError

        backends = [
            StubBackend(f"b{i}", fail_with=MappingError("bad strategy"))
            for i in range(3)
        ]
        router = FleetRouter(
            backends, FleetConfig(lru_capacity=0, retries=2)
        )
        try:
            outcome = router.submit(request()).wait(timeout=30)
            assert outcome.status == STATUS_ERROR
            assert outcome.error.error_type == "MappingError"
            # An answer, not a routing failure: exactly one attempt.
            assert sum(b.calls for b in backends) == 1
            assert router.stats()["reroutes"] == 0
        finally:
            router.close()

    def test_all_backends_down_yields_typed_outcome(self):
        backends = [
            StubBackend(f"b{i}", fail_with=ServiceError("down"))
            for i in range(2)
        ]
        router = FleetRouter(
            backends,
            FleetConfig(
                lru_capacity=0, retries=2, backoff_base_s=0.001,
                backoff_max_s=0.01,
            ),
        )
        try:
            outcome = router.submit(request()).wait(timeout=30)
            assert outcome.status == STATUS_ERROR
            assert outcome.error.error_type == "ServiceError"
            assert "all fleet attempts failed" in outcome.error.message
        finally:
            router.close()

    def test_restarted_backend_is_readmitted_by_the_prober(self):
        """Regression for one-way death: a backend that failed in
        transport, got marked dead, and then came back must receive
        traffic again within a few probe intervals — no operator
        action, no router restart."""

        class RevivableBackend(StubBackend):
            """Server-side health independent of the router's liveness
            flag (the HttpBackend shape: probes ask the server)."""

            def __init__(self, name):
                super().__init__(name)
                self.server_up = True

            def compile(self, req):
                if not self.server_up:
                    raise ServiceError("connection refused")
                return super().compile(req)

            def mark_alive(self):
                self._dead = False

            def probe(self):
                if not self.server_up:
                    raise ServiceError("connection refused")
                return {"ok": True}

        probe_interval_s = 0.05
        backends = {
            name: RevivableBackend(name) for name in ("b0", "b1", "b2")
        }
        router = FleetRouter(
            list(backends.values()),
            FleetConfig(
                lru_capacity=0, retries=3, backoff_base_s=0.001,
                backoff_max_s=0.01,
                probe_interval_s=probe_interval_s,
                breaker_failure_threshold=2,
                breaker_reset_timeout_s=probe_interval_s,
            ),
        )

        def shard_request(victim, base):
            candidate = base
            while True:
                req = request(R=64 + 32 * candidate, C=32)
                if router.ring.node_for(req.digest()) == victim:
                    return req
                candidate += 1

        try:
            victim = router.ring.node_for(request().digest())
            backends[victim].server_up = False
            outcome = router.submit(request()).wait(timeout=30)
            assert outcome.ok and outcome.served_by != victim
            assert router.stats()["backends"][victim]["alive"] is False

            # The restart: server back up; only the prober can notice.
            backends[victim].server_up = True
            deadline = time.monotonic() + 40 * probe_interval_s
            readmitted = False
            while time.monotonic() < deadline:
                entry = router.stats()["backends"][victim]
                if entry["alive"] and entry["breaker"]["state"] == "closed":
                    readmitted = True
                    break
                time.sleep(probe_interval_s / 2)
            assert readmitted, (
                f"victim not readmitted within 40 probe intervals: "
                f"{router.stats()['backends'][victim]}"
            )
            assert router.stats()["readmissions"] >= 1

            # And it actually receives traffic again on its own shard.
            outcome = router.submit(
                shard_request(victim, base=50)
            ).wait(timeout=30)
            assert outcome.ok
            assert outcome.served_by == victim
        finally:
            router.close()

    def test_kill_one_backend_mid_campaign_loses_nothing(self, tmp_path):
        """The acceptance gate: 3 backends, one dies, zero lost requests."""
        fleet = local_fleet(
            3,
            str(tmp_path / "cache"),
            fleet_config=FleetConfig(
                lru_capacity=0, retries=3, backoff_base_s=0.001,
                backoff_max_s=0.01, cache_dir=None,
            ),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        # Disable the router's disk tier so every request exercises
        # dispatch + failover (backends still share the store).
        fleet.store = None
        try:
            wave1 = [
                t.wait(timeout=60)
                for t in fleet.submit_many(distinct_requests(9))
            ]
            assert all(o.ok for o in wave1)
            assert fleet.stats()["reroutes"] == 0

            victim = "backend-1"
            fleet.backends[victim].kill()

            wave2_requests = distinct_requests(9, base=100)
            wave2 = [
                t.wait(timeout=60)
                for t in fleet.submit_many(wave2_requests)
            ]
            # Zero lost requests: every ticket resolves with a success.
            assert len(wave2) == 9
            assert all(o.ok for o in wave2), [
                o.error.message for o in wave2 if not o.ok
            ]
            assert all(o.served_by != victim for o in wave2)

            # Reroute accounting matches exactly: outcomes served off
            # their ring primary == requests the victim owned.
            displaced = sum(
                1
                for req in wave2_requests
                if fleet.ring.node_for(req.digest()) == victim
            )
            rerouted = sum(
                1
                for req, out in zip(wave2_requests, wave2)
                if out.served_by != fleet.ring.node_for(req.digest())
            )
            assert rerouted == displaced
            stats = fleet.stats()
            assert stats["reroutes"] == displaced
            assert stats["backends"][victim]["reroutes_from"] == displaced
            assert stats["backends"][victim]["alive"] is False
            assert stats["errors"] == 0
        finally:
            fleet.close()

    def test_artifacts_byte_identical_across_backends(self, tmp_path):
        """Digest-pinned byte identity: any backend, same bytes.

        Real pipeline (no fake compile_fn): the same requests compiled
        by a 3-backend fleet and a 1-backend fleet must produce
        artifacts with identical content fingerprints per digest.
        """
        requests = distinct_requests(4)

        def fingerprints(n_backends: int, cache_dir: str):
            fleet = local_fleet(
                n_backends,
                cache_dir,
                fleet_config=FleetConfig(lru_capacity=0),
            )
            try:
                outcomes = [
                    t.wait(timeout=300)
                    for t in fleet.submit_many(requests)
                ]
                assert all(o.ok for o in outcomes)
                return {
                    o.digest: artifact_fingerprint(o.artifact)
                    for o in outcomes
                }
            finally:
                fleet.close()

        many = fingerprints(3, str(tmp_path / "fleet-cache"))
        solo = fingerprints(1, str(tmp_path / "solo-cache"))
        assert many == solo


class TestShutdown:
    def test_close_resolves_stranded_jobs(self):
        gate = threading.Event()
        router = FleetRouter(
            [StubBackend("b0", gate=gate)],
            FleetConfig(lru_capacity=0, dispatchers=1),
        )
        # One job occupies the single dispatcher; more sit in the queue.
        tickets = [
            router.submit(r) for r in distinct_requests(4)
        ]
        closer = threading.Thread(target=router.close)
        closer.start()
        gate.set()
        closer.join(timeout=60)
        assert not closer.is_alive()
        outcomes = [t.wait(timeout=30) for t in tickets]
        # Every admitted job resolved: completed or typed rejection,
        # never a hung future.
        for outcome in outcomes:
            assert outcome.status in (STATUS_MISS, STATUS_ERROR)
            if outcome.status == STATUS_ERROR:
                assert outcome.error.error_type == "ServiceError"

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            FleetRouter([], FleetConfig())
        with pytest.raises(ServiceError):
            FleetRouter(
                [StubBackend("dup"), StubBackend("dup")], FleetConfig()
            )
        with pytest.raises(ServiceError):
            FleetRouter([StubBackend("b0")], FleetConfig(dispatchers=0))
        with pytest.raises(ServiceError):
            local_fleet(0, None)


class TestSubprocessFailover:
    def test_sigkill_backend_failover(self, tmp_path):
        """Deployment-shape failover: SIGKILL a real server process."""
        from repro.service.fleet import HttpBackend

        cache_dir = str(tmp_path / "cache")
        members = []
        try:
            for index in range(2):
                proc, url = spawn_server_process(
                    cache_dir,
                    str(tmp_path / f"backend-{index}.log"),
                    workers=1,
                )
                members.append(
                    HttpBackend(
                        f"backend-{index}", url, timeout=60, process=proc
                    )
                )
            router = FleetRouter(
                members,
                FleetConfig(
                    lru_capacity=0, retries=3, backoff_base_s=0.01,
                    backoff_max_s=0.1,
                ),
                owns_backends=True,
            )
            try:
                first = [
                    t.wait(timeout=300)
                    for t in router.submit_many(distinct_requests(4))
                ]
                assert all(o.ok for o in first)

                victim = members[0]
                victim.kill()  # SIGKILL: no graceful drain

                second = [
                    t.wait(timeout=300)
                    for t in router.submit_many(
                        distinct_requests(4, base=50)
                    )
                ]
                assert all(o.ok for o in second), [
                    o.error.message for o in second if not o.ok
                ]
                assert all(
                    o.served_by == members[1].name for o in second
                )
                assert router.stats()["backends"][victim.name][
                    "alive"
                ] is False
            finally:
                router.close()
                members = []
        finally:
            for member in members:
                member.close()
