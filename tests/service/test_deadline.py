"""Deadline propagation: wire format, admission shed, worker shed,
router shed, budget forwarding, and the HTTP 504 mapping.

The acceptance-criteria test is
``TestWorkerShed::test_saturated_backend_sheds_without_compiling``: a
tight-deadline request against a saturated backend must come back as a
typed shed outcome, never hang, and never reach the pipeline (verified
via the ``executions`` counter).
"""

import threading
import time

import pytest

from repro.errors import DeadlineExceededError, QueueFullError
from repro.service import (
    CompileRequest,
    CompileService,
    FleetConfig,
    FleetRouter,
    ServiceConfig,
    STATUS_ERROR,
)
from repro.service.fleet import Backend
from repro.service.store import CompileArtifact


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
        app="sumRows",
        sizes=sizes or {"R": 64, "C": 32},
        deadline_s=deadline_s,
    )


def service(**kwargs) -> CompileService:
    config = ServiceConfig(cache_dir=None, **kwargs)
    return CompileService(
        config, compile_fn=lambda req, digest: fake_artifact(digest)
    )


def assert_shed(outcome):
    assert outcome.status == STATUS_ERROR
    assert outcome.error.error_type == "DeadlineExceededError"
    assert outcome.error.exit_code == 75


class TestWireFormat:
    def test_deadline_round_trips(self):
        req = request(deadline_s=1.5)
        data = req.to_dict()
        assert data["deadline_s"] == 1.5
        assert CompileRequest.from_dict(data).deadline_s == 1.5

    def test_absent_deadline_stays_absent(self):
        assert "deadline_s" not in request().to_dict()
        assert CompileRequest.from_dict(request().to_dict()).deadline_s is None

    def test_non_numeric_deadline_is_typed(self):
        from repro.errors import RuntimeConfigError

        data = request().to_dict()
        data["deadline_s"] = "soon"
        with pytest.raises(RuntimeConfigError):
            CompileRequest.from_dict(data)

    def test_digest_ignores_the_deadline(self):
        # Same program under a different budget = same artifact; the
        # content address must not fragment the cache by deadline.
        assert request().digest() == request(deadline_s=0.5).digest()
        assert request().digest() == request(deadline_s=-1.0).digest()

    def test_with_deadline_rebases_only_the_budget(self):
        req = request(deadline_s=10.0)
        hopped = req.with_deadline(3.25)
        assert hopped.deadline_s == 3.25
        assert hopped.app == req.app and hopped.sizes == req.sizes
        assert req.deadline_s == 10.0  # original untouched

    def test_non_positive_budgets_are_legal_on_the_wire(self):
        # A forwarding hop may ship an already-spent budget; the
        # receiver sheds rather than the sender crashing.
        assert request(deadline_s=0.0).deadline_s == 0.0
        assert request(deadline_s=-0.5).deadline_s == -0.5


class TestServiceShedding:
    def test_spent_budget_sheds_at_admission(self):
        svc = service(workers=1)
        try:
            outcome = svc.compile(request(deadline_s=0.0))
            assert_shed(outcome)
            assert svc.executions == 0  # never compiled
            assert svc.stats()["deadline_shed"] == 1
        finally:
            svc.close()

    def test_saturated_backend_sheds_without_compiling(self):
        """The acceptance gate: tight deadline + busy worker = typed
        shed within deadline + grace, zero pipeline executions."""
        release = threading.Event()
        started = threading.Event()

        def blocking_compile(req, digest):
            started.set()
            assert release.wait(timeout=30)
            return fake_artifact(digest)

        svc = CompileService(
            ServiceConfig(cache_dir=None, workers=1),
            compile_fn=blocking_compile,
        )
        try:
            blocker = svc.submit(request())  # occupies the one worker
            assert started.wait(timeout=30)
            tight = svc.submit(request(deadline_s=0.15, R=96, C=32))
            time.sleep(0.3)  # let the deadline lapse while queued
            release.set()
            blocked_outcome = blocker.result(timeout=30)
            assert blocked_outcome.ok
            t0 = time.perf_counter()
            outcome = tight.result(timeout=30)
            assert time.perf_counter() - t0 < 5.0  # resolved, no hang
            assert_shed(outcome)
            # The shed happened before the pipeline: only the blocker
            # ever executed.
            assert svc.executions == 1
            assert svc.stats()["deadline_shed"] == 1
        finally:
            release.set()
            svc.close()

    def test_compile_wait_is_bounded_by_the_budget(self):
        """Even with the worker wedged, compile() answers within
        deadline + grace instead of hanging."""
        release = threading.Event()
        started = threading.Event()

        def blocking_compile(req, digest):
            started.set()
            assert release.wait(timeout=30)
            return fake_artifact(digest)

        svc = CompileService(
            ServiceConfig(cache_dir=None, workers=1),
            compile_fn=blocking_compile,
        )
        try:
            svc.submit(request())
            assert started.wait(timeout=30)
            t0 = time.perf_counter()
            outcome = svc.compile(request(deadline_s=0.1, R=96, C=32))
            elapsed = time.perf_counter() - t0
            assert_shed(outcome)
            # 0.1s budget + 2s grace, with scheduling margin.
            assert elapsed < 4.0
        finally:
            release.set()
            svc.close()


class RecordingBackend(Backend):
    """Captures the deadline each forwarded request carried."""

    def __init__(self, name, fail_with=None):
        self.name = name
        self.fail_with = fail_with
        self.seen_deadlines = []
        self.calls = 0

    def compile(self, req):
        self.calls += 1
        self.seen_deadlines.append(req.deadline_s)
        if self.fail_with is not None:
            raise self.fail_with
        from repro.service.api import STATUS_MISS, CompileOutcome

        digest = req.digest()
        return CompileOutcome(
            digest=digest,
            status=STATUS_MISS,
            artifact=fake_artifact(digest).to_dict(),
        )

    def alive(self):
        return True

    def mark_dead(self):
        pass

    def close(self):
        pass


class TestRouterShedding:
    def test_spent_budget_sheds_at_router_admission(self):
        backend = RecordingBackend("b0")
        router = FleetRouter([backend], FleetConfig(probe_interval_s=0))
        try:
            outcome = router.submit(request(deadline_s=-1.0)).wait(
                timeout=10
            )
            assert_shed(outcome)
            assert backend.calls == 0
            assert router.stats()["deadline_shed"] == 1
        finally:
            router.close()

    def test_router_forwards_the_remaining_budget(self):
        backend = RecordingBackend("b0")
        router = FleetRouter(
            [backend], FleetConfig(lru_capacity=0, probe_interval_s=0)
        )
        try:
            outcome = router.submit(request(deadline_s=30.0)).wait(
                timeout=10
            )
            assert outcome.ok
            (forwarded,) = backend.seen_deadlines
            # Rebased per hop: strictly less than the original budget,
            # but nearly all of it (admission is fast).
            assert forwarded is not None
            assert 0 < forwarded < 30.0
            assert forwarded > 25.0
        finally:
            router.close()

    def test_router_forwards_the_join_widened_budget(self):
        # A joiner with no deadline widens the shared job to unbounded;
        # the dispatch must not forward the first submitter's budget.
        gate = threading.Event()

        class GatedBackend(RecordingBackend):
            def compile(self, req):
                if req.sizes["R"] == 64 and not gate.wait(timeout=30):
                    raise TimeoutError("test gate never opened")
                return super().compile(req)

        backend = GatedBackend("b0")
        router = FleetRouter(
            [backend],
            FleetConfig(lru_capacity=0, dispatchers=1, probe_interval_s=0),
        )
        try:
            blocker = router.submit(request(R=64, C=32))
            tight = router.submit(request(deadline_s=5.0, R=128, C=32))
            assert router.submit(request(R=128, C=32)).role == "coalesced"
            gate.set()
            assert blocker.wait(timeout=30).ok
            assert tight.wait(timeout=30).ok
            assert backend.seen_deadlines == [None, None]
        finally:
            gate.set()
            router.close()

    def test_saturated_fleet_sheds_within_budget_plus_backoff(self):
        """Failover never outlives the caller's budget: with every
        backend saturated, a tight deadline resolves as a typed shed in
        roughly deadline + one backoff slice, not retries * backoff."""
        backends = [
            RecordingBackend(f"b{i}", fail_with=QueueFullError("full"))
            for i in range(2)
        ]
        router = FleetRouter(
            backends,
            FleetConfig(
                lru_capacity=0,
                retries=50,
                backoff_base_s=0.05,
                backoff_max_s=0.1,
                probe_interval_s=0,
            ),
        )
        try:
            t0 = time.perf_counter()
            outcome = router.submit(request(deadline_s=0.2)).wait(
                timeout=30
            )
            elapsed = time.perf_counter() - t0
            assert_shed(outcome)
            # Budget 0.2s + one 0.1s backoff slice, with margin — far
            # below the ~5s a full 50-retry walk would take.
            assert elapsed < 1.5
            assert router.stats()["deadline_shed"] == 1
        finally:
            router.close()

    def test_backend_shed_is_final_not_retried(self):
        """A DeadlineExceededError outcome from a backend means the
        budget is spent everywhere — the router must not reroute it."""
        from repro.service.api import CompileOutcome
        from repro.service.admission import error_outcome

        class SheddingBackend(RecordingBackend):
            def compile(self, req):
                self.calls += 1
                return error_outcome(
                    req.digest(), DeadlineExceededError("spent")
                )

        backends = [SheddingBackend(f"b{i}") for i in range(3)]
        router = FleetRouter(
            backends,
            FleetConfig(lru_capacity=0, retries=4, probe_interval_s=0),
        )
        try:
            outcome = router.submit(request(deadline_s=30.0)).wait(
                timeout=10
            )
            assert_shed(outcome)
            assert sum(b.calls for b in backends) == 1
        finally:
            router.close()


class TestHttpMapping:
    def test_shed_maps_to_504_and_exit_75(self):
        import threading as _threading

        from repro.service import ServiceClient
        from repro.service.http import make_server, serve_forever

        svc = service(workers=1)
        server = make_server(svc, "127.0.0.1", 0)
        thread = _threading.Thread(
            target=serve_forever, args=(server,), daemon=True
        )
        thread.start()
        try:
            client = ServiceClient(server.url, timeout=30)
            # A spent budget comes back as an outcome, not an exception:
            # 504 is a semantic answer the client must not retry.
            outcome = client.compile(request(deadline_s=0.0))
            assert_shed(outcome)

            # Raw status check: the shed is a 504, a pipeline error
            # stays 422.
            status, data = client._request(
                "POST", "/v1/compile",
                payload=request(deadline_s=0.0).to_dict(),
            )
            assert status == 504
            assert data["error"]["error_type"] == "DeadlineExceededError"
        finally:
            server.shutdown()
            thread.join(timeout=10)
            svc.close()
