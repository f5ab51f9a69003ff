"""CompileService: single-flight dedup, backpressure, cache layers."""

import threading

import pytest

from repro.errors import (
    EXIT_UNAVAILABLE,
    MappingError,
    QueueFullError,
    RuntimeConfigError,
    ServiceError,
    exit_code_for,
)
from repro.service import (
    STATUS_COALESCED,
    STATUS_ERROR,
    STATUS_HIT,
    STATUS_MISS,
    CompileRequest,
    CompileService,
    ServiceConfig,
)
from repro.service.store import CompileArtifact


def fake_artifact(digest: str) -> CompileArtifact:
    return CompileArtifact(
        digest=digest,
        program="fake",
        strategy="multidim",
        device="Tesla K20c",
        cost={"total_us": 1.0, "kernels": []},
    )


def request(app: str = "sumRows", **sizes) -> CompileRequest:
    return CompileRequest(app=app, sizes=sizes or {"R": 64, "C": 32})


class GatedCompiler:
    """A compile_fn the test opens deliberately; counts executions."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, req, digest):
        self.started.set()
        with self._lock:
            self.calls += 1
        if not self.gate.wait(timeout=30):
            raise TimeoutError("test gate never opened")
        return fake_artifact(digest)


class TestSingleFlight:
    def test_concurrent_identical_requests_run_once(self, tmp_path):
        compiler = GatedCompiler()
        service = CompileService(
            ServiceConfig(workers=4, cache_dir=str(tmp_path / "cache")),
            compile_fn=compiler,
        )
        try:
            tickets = [service.submit(request()) for _ in range(8)]
            roles = [t.role for t in tickets]
            assert roles.count(STATUS_MISS) == 1
            assert roles.count(STATUS_COALESCED) == 7
            assert not any(t.done() for t in tickets)
            compiler.gate.set()
            outcomes = [t.result(timeout=30) for t in tickets]
            assert compiler.calls == 1
            assert service.executions == 1
            digests = {o.digest for o in outcomes}
            assert len(digests) == 1
            assert all(o.ok for o in outcomes)
        finally:
            compiler.gate.set()
            service.close()

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        compiler = GatedCompiler()
        service = CompileService(
            ServiceConfig(workers=4, cache_dir=str(tmp_path / "cache")),
            compile_fn=compiler,
        )
        try:
            t1 = service.submit(request(R=64, C=32))
            t2 = service.submit(request(R=128, C=32))
            assert {t1.role, t2.role} == {STATUS_MISS}
            assert t1.digest != t2.digest
            compiler.gate.set()
            t1.result(timeout=30)
            t2.result(timeout=30)
            assert compiler.calls == 2
        finally:
            compiler.gate.set()
            service.close()

    def test_second_submit_after_completion_hits_store(self, tmp_path):
        service = CompileService(
            ServiceConfig(workers=2, cache_dir=str(tmp_path / "cache")),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            first = service.compile(request())
            second = service.compile(request())
            assert first.status == STATUS_MISS
            assert second.status == STATUS_HIT
            assert second.cached
            assert service.executions == 1
        finally:
            service.close()


class TestBackpressure:
    def test_queue_full_raises_typed_error(self, tmp_path):
        compiler = GatedCompiler()
        service = CompileService(
            ServiceConfig(
                workers=1,
                queue_limit=1,
                cache_dir=str(tmp_path / "cache"),
            ),
            compile_fn=compiler,
        )
        try:
            service.submit(request(R=64, C=32))
            # Identical requests coalesce, so overflow needs a distinct
            # one; rejection happens at admission, never as a hang.
            with pytest.raises(QueueFullError) as excinfo:
                service.submit(request(R=128, C=32))
            assert exit_code_for(excinfo.value) == EXIT_UNAVAILABLE
            assert service.stats()["queue_rejections"] == 1
        finally:
            compiler.gate.set()
            service.close()

    def test_rejection_does_not_leak_admission_slots(self, tmp_path):
        compiler = GatedCompiler()
        service = CompileService(
            ServiceConfig(
                workers=1,
                queue_limit=1,
                cache_dir=str(tmp_path / "cache"),
            ),
            compile_fn=compiler,
        )
        try:
            ticket = service.submit(request(R=64, C=32))
            with pytest.raises(QueueFullError):
                service.submit(request(R=128, C=32))
            compiler.gate.set()
            ticket.result(timeout=30)
            # The slot freed by completion admits the next request.
            outcome = service.compile(request(R=256, C=32))
            assert outcome.ok
            assert service.stats()["queue_depth"] == 0
        finally:
            compiler.gate.set()
            service.close()

    def test_coalescing_is_exempt_from_admission(self, tmp_path):
        compiler = GatedCompiler()
        service = CompileService(
            ServiceConfig(
                workers=1,
                queue_limit=1,
                cache_dir=str(tmp_path / "cache"),
            ),
            compile_fn=compiler,
        )
        try:
            miss = service.submit(request())
            joined = service.submit(request())  # full queue, same digest
            assert joined.role == STATUS_COALESCED
            compiler.gate.set()
            assert miss.result(timeout=30).ok
            assert joined.result(timeout=30).ok
        finally:
            compiler.gate.set()
            service.close()


class TestErrors:
    def test_unknown_app_raises_at_submit(self):
        service = CompileService(ServiceConfig(workers=1))
        try:
            with pytest.raises(RuntimeConfigError):
                service.submit(request(app="noSuchApp"))
        finally:
            service.close()

    def test_pipeline_error_becomes_typed_outcome(self, tmp_path):
        def failing(req, digest):
            raise MappingError("unknown strategy 'nope'")

        service = CompileService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path / "cache")),
            compile_fn=failing,
        )
        try:
            outcome = service.compile(request())
            assert outcome.status == STATUS_ERROR
            assert not outcome.ok
            assert outcome.error.error_type == "MappingError"
            assert outcome.error.exit_code == 3
            # Errors are never persisted: the next request retries.
            assert len(service.store) == 0
            assert service.stats()["errors"] == 1
        finally:
            service.close()

    def test_real_pipeline_failure_carries_replayable_report(self, tmp_path):
        service = CompileService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        )
        try:
            outcome = service.compile(
                CompileRequest(
                    app="sumRows",
                    sizes={"R": 64, "C": 32},
                    strategy="nope",
                )
            )
            assert outcome.status == STATUS_ERROR
            assert outcome.error.failure_report is not None
            from repro.resilience import FailureReport

            report = FailureReport.from_dict(outcome.error.failure_report)
            assert report.stage
        finally:
            service.close()

    def test_submit_after_close_raises(self):
        service = CompileService(ServiceConfig(workers=1))
        service.close()
        with pytest.raises(ServiceError):
            service.submit(request())

    def test_close_completes_admitted_jobs(self, tmp_path):
        # Jobs admitted before close() are queued ahead of the stop
        # sentinels, so workers drain them; no waiter blocks forever.
        compiler = GatedCompiler()
        service = CompileService(
            ServiceConfig(
                workers=1, queue_limit=4, cache_dir=str(tmp_path / "cache")
            ),
            compile_fn=compiler,
        )
        t1 = service.submit(request(R=64, C=32))
        t2 = service.submit(request(R=128, C=32))
        closer = threading.Thread(target=lambda: service.close(save=False))
        closer.start()
        compiler.gate.set()
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert t1.result(timeout=30).ok
        assert t2.result(timeout=30).ok

    def test_submit_racing_close_resolves_or_rejects(self, tmp_path):
        # Whatever side of close() a submit lands on, its ticket must
        # either resolve or the submit must raise a typed error — a
        # future that never completes is the one forbidden outcome.
        service = CompileService(
            ServiceConfig(workers=2, queue_limit=16),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        results = []

        def submitter(rows):
            try:
                ticket = service.submit(request(R=rows, C=32))
                results.append(ticket.result(timeout=30))
            except ServiceError as exc:  # includes QueueFullError
                results.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(64 * (i + 1),))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        service.close(save=False)
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 6

    def test_stranded_queue_jobs_rejected_not_abandoned(self):
        # If a job somehow remains queued after the workers exit (e.g.
        # a worker overran the join timeout), close() resolves it with
        # a typed error instead of leaving its future pending.
        from repro.service.admission import Job

        service = CompileService(ServiceConfig(workers=1))
        service.close(save=False)
        job = Job("ab" * 32, request())
        service._queue.put(job)
        service._reject_queued_jobs()
        outcome = job.future.result(timeout=5)
        assert outcome.status == STATUS_ERROR
        assert outcome.error.error_type == "ServiceError"

    def test_bad_config_rejected(self):
        with pytest.raises(ServiceError):
            CompileService(ServiceConfig(workers=0))
        with pytest.raises(ServiceError):
            CompileService(ServiceConfig(queue_limit=0))


class TestPersistence:
    def test_cache_survives_service_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = CompileService(
            ServiceConfig(workers=1, cache_dir=cache_dir),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            assert first.compile(request()).status == STATUS_MISS
        finally:
            first.close()

        second = CompileService(
            ServiceConfig(workers=1, cache_dir=cache_dir),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            outcome = second.compile(request())
            assert outcome.status == STATUS_HIT
            assert second.executions == 0
        finally:
            second.close()

    def test_planted_memo_pickle_is_inert(self, tmp_path):
        """A cache dir is input the service only reads through the store:
        a planted ``memo.pkl`` whose unpickling would build an artifact
        store elsewhere and start another compile service is never
        opened."""
        import pickle

        from repro.ir.serialize import PIPELINE_VERSION
        from repro.service.store import ArtifactStore

        class Build:
            def __init__(self, cls, *args):
                self.cls, self.args = cls, args

            def __reduce__(self):
                return self.cls, self.args

        outside = tmp_path / "created-by-unpickling"
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        planted = cache_dir / "memo.pkl"
        planted.write_bytes(pickle.dumps({
            "version": 2,
            "pipeline_version": PIPELINE_VERSION,
            "search": [
                Build(ArtifactStore, str(outside)),
                Build(CompileService, Build(ServiceConfig, 1)),
            ],
        }))
        payload = planted.read_bytes()
        before = set(threading.enumerate())
        service = CompileService(
            ServiceConfig(workers=2, cache_dir=str(cache_dir)),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            started = set(threading.enumerate()) - before
            assert started == set(service._threads)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]
            assert planted.read_bytes() == payload
        finally:
            service.close()
        assert not outside.exists()
        assert planted.read_bytes() == payload

    def test_cache_dir_holds_only_the_store(self, tmp_path):
        cache_dir = tmp_path / "cache"
        service = CompileService(
            ServiceConfig(workers=1, cache_dir=str(cache_dir))
        )
        try:
            assert service.compile(request()).status == STATUS_MISS
        finally:
            service.close()
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            "objects", "recipes",
        ]

    def test_no_cache_dir_disables_persistence(self):
        service = CompileService(
            ServiceConfig(workers=1, cache_dir=None),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            assert service.store is None
            first = service.compile(request())
            second = service.compile(request())
            # Without a store every sequential request is a miss; only
            # concurrent identical requests dedup (single-flight).
            assert first.status == STATUS_MISS
            assert second.status == STATUS_MISS
        finally:
            service.close()


class TestStats:
    def test_counters_and_latency(self, tmp_path):
        service = CompileService(
            ServiceConfig(workers=2, cache_dir=str(tmp_path / "cache")),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            service.compile(request())
            service.compile(request())
            stats = service.stats()
            assert stats["requests"] == 2
            assert stats["cache_misses"] == 1
            assert stats["cache_hits"] == 1
            assert stats["executions"] == 1
            assert stats["queue_depth"] == 0
            latency = stats["latency_ms"]
            assert latency["count"] == 2
            assert latency["p95"] >= latency["p50"] >= 0
            assert stats["store"]["artifacts"] == 1
        finally:
            service.close()

    def test_late_hit_reclassified_as_hit(self, tmp_path):
        # An artifact persisted (e.g. by another process sharing the
        # cache dir) while the job sat in the queue is served as a hit
        # at execution time; the admission-time miss count is corrected
        # so hit/miss counters agree with the outcome statuses.
        compiler = GatedCompiler()
        service = CompileService(
            ServiceConfig(
                workers=1, queue_limit=4, cache_dir=str(tmp_path / "cache")
            ),
            compile_fn=compiler,
        )
        try:
            blocker = service.submit(request(R=64, C=32))
            assert compiler.started.wait(timeout=30)
            queued = service.submit(request(R=128, C=32))
            assert queued.role == STATUS_MISS
            # Simulate the concurrent writer before the worker gets there.
            service.store.put(fake_artifact(queued.digest))
            compiler.gate.set()
            assert blocker.result(timeout=30).ok
            outcome = queued.result(timeout=30)
            assert outcome.status == STATUS_HIT
            stats = service.stats()
            assert stats["late_hits"] == 1
            assert stats["cache_hits"] == 1
            assert stats["cache_misses"] == 1  # only the executed job
            assert stats["executions"] == 1
        finally:
            compiler.gate.set()
            service.close()

    def test_metrics_snapshot_carries_counters(self, tmp_path):
        from repro.observability import capture

        with capture():
            service = CompileService(
                ServiceConfig(workers=1, cache_dir=str(tmp_path / "cache")),
                compile_fn=lambda req, digest: fake_artifact(digest),
            )
            try:
                service.compile(request())
                service.compile(request())
            finally:
                service.close()
            counters = service.metrics_snapshot()["counters"]
        assert counters["service.requests"] == 2
        assert counters["service.cache.hits"] == 1
        assert counters["service.cache.misses"] == 1


class TestDigestMemo:
    """The request-digest memo: pure speedup, never a different answer."""

    def test_memoized_digest_matches_fresh(self):
        from repro.service import clear_digest_memo

        clear_digest_memo()
        fresh = request().digest()
        memoized = request().digest()
        clear_digest_memo()
        recomputed = request().digest()
        assert fresh == memoized == recomputed

    def test_distinct_requests_distinct_digests(self):
        assert request(R=64, C=32).digest() != request(R=128, C=32).digest()

    def test_resolution_errors_are_not_cached(self):
        bad = CompileRequest(app="noSuchApp")
        with pytest.raises(RuntimeConfigError):
            bad.digest()
        with pytest.raises(RuntimeConfigError):
            bad.digest()

    def test_memo_is_bounded(self):
        from repro.service.api import _DIGEST_MEMO

        for i in range(8):
            request(R=64 + i, C=32).digest()
        assert len(_DIGEST_MEMO) <= _DIGEST_MEMO.capacity == 1024

    def test_program_ir_key_is_a_sha256_hex(self, monkeypatch):
        """An entry holds 64 characters, not the serialized program."""
        from repro.analysis.cache import LRUCache
        from repro.apps import ALL_APPS
        from repro.service import api

        class Recording(LRUCache):
            def put(self, key, value):
                keys.append(key)
                return super().put(key, value)

        keys = []
        monkeypatch.setattr(api, "_DIGEST_MEMO", Recording(8))
        sizes = {"R": 64, "C": 32}
        program = ALL_APPS["sumRows"].build()
        digest = api.request_for_program(program, sizes=sizes).digest()
        (key,) = keys
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")
        # A memo hit and the same program sent by name give that digest.
        assert api.request_for_program(program, sizes=sizes).digest() == digest
        assert request(**sizes).digest() == digest
        assert len(keys) == 2


class TestOneResolution:
    """A request resolves and canonicalizes once; the miss compiles the
    program its digest hashed."""

    def test_copies_for_the_next_hop_keep_the_resolution(self, monkeypatch):
        from repro.service import clear_digest_memo

        clear_digest_memo()
        original = request(R=80, C=32)
        digest = original.digest()
        monkeypatch.setattr(
            CompileRequest, "resolve",
            lambda self: pytest.fail("resolved again"),
        )
        hop = original.with_deadline(5.0).with_trace("ab" * 16, "cd" * 8)
        assert hop.digest() == digest
        program, _, sizes = hop.compile_inputs(digest)
        assert program is original.compile_inputs(digest)[0]
        assert sizes == {"R": 80, "C": 32}

    def test_param_named_like_a_binder_gives_one_artifact(self):
        from repro.ir import Builder, F64
        from repro.service.api import request_for_program

        def sum_rows():
            b = Builder("sumRows")
            m = b.matrix("_b0", F64, rows="R", cols="C")
            return b.build(m.map_rows(lambda row: row.reduce("+")))

        # Two builds gensym different binder names: two wire requests.
        requests = [
            request_for_program(sum_rows(), sizes={"R": 64, "C": 32})
            for _ in range(2)
        ]
        assert requests[0].program_ir != requests[1].program_ir
        with CompileService() as service:
            outcomes = [service.compile(r) for r in requests]
        assert [o.status for o in outcomes] == [STATUS_MISS, STATUS_MISS]
        assert outcomes[0].digest == outcomes[1].digest
        assert (
            outcomes[0].artifact["cuda_source"]
            == outcomes[1].artifact["cuda_source"]
        )
