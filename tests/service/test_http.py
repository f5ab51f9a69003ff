"""HTTP front end + client: round trips, status mapping, backpressure."""

import threading
import time

import pytest

from repro.errors import (
    IRError,
    MappingError,
    QueueFullError,
    RuntimeConfigError,
    ServiceError,
    exit_code_for,
)
from repro.service import (
    STATUS_HIT,
    STATUS_MISS,
    CompileRequest,
    CompileService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.http import make_server, serve_forever
from repro.service.store import CompileArtifact


def fake_artifact(digest: str) -> CompileArtifact:
    return CompileArtifact(
        digest=digest,
        program="fake",
        strategy="multidim",
        device="Tesla K20c",
        cost={"total_us": 1.0, "kernels": []},
    )


@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral port, with a fast fake compiler."""
    service = CompileService(
        ServiceConfig(workers=2, cache_dir=str(tmp_path / "cache")),
        compile_fn=lambda req, digest: fake_artifact(digest),
    )
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=serve_forever, args=(server,))
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=30)
        service.close()


def request(**sizes) -> CompileRequest:
    return CompileRequest(app="sumRows", sizes=sizes or {"R": 64, "C": 32})


#: A well-formed serialized program: one constant, no parameters.
CONST_PROGRAM = {
    "name": "const",
    "params": [],
    "result": {
        "n": "const", "value": 1.0, "ty": {"t": "scalar", "name": "f64"},
    },
}


class TestEndpoints:
    def test_healthz(self, served):
        health = ServiceClient(served.url).health()
        assert health["ok"] is True
        assert health["pipeline_version"] >= 1

    def test_compile_miss_then_hit(self, served):
        client = ServiceClient(served.url)
        first = client.compile(request())
        second = client.compile(request())
        assert first.status == STATUS_MISS
        assert second.status == STATUS_HIT
        assert first.digest == second.digest
        assert second.artifact["program"] == "fake"

    def test_artifact_fetch(self, served):
        client = ServiceClient(served.url)
        outcome = client.compile(request())
        fetched = client.artifact(outcome.digest)
        assert fetched["digest"] == outcome.digest
        assert client.artifact("00" * 32) is None

    def test_stats_counters(self, served):
        client = ServiceClient(served.url)
        client.compile(request())
        client.compile(request())
        stats = client.stats()["service"]
        assert stats["requests"] == 2
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1

    def test_clear_cache(self, served):
        client = ServiceClient(served.url)
        client.compile(request())
        assert client.clear_cache() == 1
        assert client.compile(request()).status == STATUS_MISS

    def test_unknown_path_404(self, served):
        client = ServiceClient(served.url)
        status, data = client._request("GET", "/v1/nonsense")
        assert status == 404
        assert data["error_type"] == "NotFound"

    def test_artifact_traversal_is_404_and_touches_nothing(
        self, served, tmp_path
    ):
        # urllib normalizes dot segments, so speak raw HTTP: the server
        # must treat a traversal digest as not-found without opening
        # (or quarantining) anything outside the store.
        import http.client

        victim = tmp_path / "victim.json"
        victim.write_text("{ not json")  # would be unlinked if opened
        for raw in (
            "/v1/artifacts/../../../victim",
            "/v1/artifacts/..%2f..%2fvictim",
            "/v1/artifacts/ZZ" + "f" * 62,
        ):
            conn = http.client.HTTPConnection(
                "127.0.0.1", served.port, timeout=10
            )
            try:
                conn.request("GET", raw)
                response = conn.getresponse()
                assert response.status == 404
                response.read()
            finally:
                conn.close()
        assert victim.exists()
        assert victim.read_text() == "{ not json"


class TestErrorMapping:
    def test_unknown_app_is_400(self, served):
        client = ServiceClient(served.url)
        with pytest.raises(RuntimeConfigError, match="unknown app"):
            client.compile({"app": "noSuchApp"})

    def test_malformed_body_is_400(self, served):
        client = ServiceClient(served.url)
        status, data = client._request(
            "POST", "/v1/compile", payload={"sizes": "not-an-object"}
        )
        assert status == 400
        assert data["exit_code"] == 2

    @pytest.mark.parametrize(
        "body, error",
        [
            ({"app": 5}, RuntimeConfigError),
            ({"app": ["x"]}, RuntimeConfigError),
            ({"app": "sumRows", "device": 5}, RuntimeConfigError),
            ({"program_ir": []}, RuntimeConfigError),
            ({"program_ir": {}}, IRError),
            ({"program_ir": "x"}, RuntimeConfigError),
            ({"program_ir": {**CONST_PROGRAM, "array_shapes": [1]}}, IRError),
            ({"program_ir": {**CONST_PROGRAM, "size_hints": [[1]]}}, IRError),
        ],
        ids=[
            "app-int", "app-list", "device-int", "ir-list", "ir-empty",
            "ir-str", "ir-shapes-list", "ir-hints-unpaired",
        ],
    )
    def test_wrongly_typed_field_is_a_typed_400(self, served, body, error):
        """A wrongly typed field is the client's fault: a typed 400, and
        the keep-alive connection stays up for the next request."""
        import http.client
        import json

        conn = http.client.HTTPConnection("127.0.0.1", served.port, timeout=30)

        def post(payload):
            conn.request(
                "POST", "/v1/compile", body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())

        try:
            status, data = post(body)
            assert status == 400, data
            assert data["error_type"] == error.__name__
            assert data["exit_code"] == exit_code_for(error("x"))
            status, data = post(request().to_dict())
            assert status == 200, data
            assert data["status"] == STATUS_MISS
        finally:
            conn.close()

    def test_pipeline_failure_is_422_with_report(self, tmp_path):
        def failing(req, digest):
            exc = MappingError("unknown strategy")
            raise exc

        service = CompileService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path / "cache")),
            compile_fn=failing,
        )
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=serve_forever, args=(server,))
        thread.start()
        try:
            outcome = ServiceClient(server.url).compile(request())
            assert not outcome.ok
            assert outcome.error.error_type == "MappingError"
            assert outcome.error.exit_code == 3
        finally:
            server.shutdown()
            thread.join(timeout=30)
            service.close()

    def test_queue_full_is_503(self, tmp_path):
        gate = threading.Event()

        def gated(req, digest):
            if not gate.wait(timeout=30):
                raise TimeoutError("gate never opened")
            return fake_artifact(digest)

        service = CompileService(
            ServiceConfig(
                workers=1, queue_limit=1, cache_dir=str(tmp_path / "cache")
            ),
            compile_fn=gated,
        )
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=serve_forever, args=(server,))
        thread.start()
        try:
            client = ServiceClient(server.url)
            blocker = threading.Thread(
                target=lambda: client.compile(request(R=64, C=32))
            )
            blocker.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                if service.stats()["queue_depth"] >= 1:
                    break
                time.sleep(0.02)
            with pytest.raises(QueueFullError):
                client.compile(request(R=128, C=32))
            gate.set()
            blocker.join(timeout=30)
        finally:
            gate.set()
            server.shutdown()
            thread.join(timeout=30)
            service.close()

    def test_server_down_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


class ScriptedServer:
    """A raw socket server misbehaving on purpose.

    Behaviors: ``hang`` reads the request then never answers;
    ``close`` reads then drops the connection with no status line (the
    RemoteDisconnected shape a mid-shutdown server produces);
    ``truncate`` promises a Content-Length it never delivers.
    """

    def __init__(self, behavior: str):
        import socket

        self.behavior = behavior
        self.connections = 0
        self._stop = threading.Event()
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn):
        try:
            conn.recv(65536)
            if self.behavior == "hang":
                self._stop.wait(30)
            elif self.behavior == "truncate":
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 1000\r\n\r\n"
                    b'{"partial":'
                )
            conn.close()
        except OSError:
            pass

    def close(self):
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=10)


@pytest.fixture(params=["hang", "close", "truncate"])
def misbehaving(request):
    server = ScriptedServer(request.param)
    try:
        yield server
    finally:
        server.close()


class TestClientTransportHardening:
    """Satellite: every socket-layer escape hatch maps onto ServiceError
    — bounded wait, typed error, never a raw traceback."""

    def test_hanging_server_bounded_wait(self):
        server = ScriptedServer("hang")
        try:
            client = ServiceClient(server.url, timeout=1)
            start = time.monotonic()
            with pytest.raises(ServiceError, match="timed out"):
                client.health()
            elapsed = time.monotonic() - start
            assert 0.5 < elapsed < 10, elapsed
        finally:
            server.close()

    def test_every_misbehavior_is_typed(self, misbehaving):
        # RemoteDisconnected / ConnectionResetError / IncompleteRead all
        # escape urllib unwrapped; the client must catch each one.
        client = ServiceClient(misbehaving.url, timeout=1)
        with pytest.raises(ServiceError):
            client.compile(request())

    def test_retry_follows_backoff_schedule(self):
        from repro.resilience.retry import backoff_delays

        server = ScriptedServer("close")
        try:
            slept = []
            client = ServiceClient(
                server.url,
                timeout=2,
                retries=3,
                backoff_base_s=0.05,
                backoff_max_s=1.0,
                backoff_seed=7,
                sleep=slept.append,
            )
            with pytest.raises(ServiceError):
                client.health()
            # One connection per attempt, the deterministic PR-3 jitter
            # schedule between them — and nothing slept after the last.
            assert server.connections == 4
            assert slept == list(
                backoff_delays(3, base_delay=0.05, max_delay=1.0, seed=7)
            )[:3]
        finally:
            server.close()

    def test_http_level_errors_are_never_transport_retried(self, served):
        slept = []
        client = ServiceClient(
            served.url, timeout=10, retries=3, sleep=slept.append
        )
        with pytest.raises(RuntimeConfigError):
            client.compile({"app": "noSuchApp"})
        assert slept == []

    def test_keep_alive_round_trip_reuses_connection(self, served):
        client = ServiceClient(served.url, keep_alive=True)
        first = client.compile(request())
        conn = client._local.conn
        assert conn is not None and conn.sock is not None
        second = client.compile(request())
        assert first.status == STATUS_MISS
        assert second.status == STATUS_HIT
        assert client._local.conn is conn, "connection was not reused"
        client.close()
        assert client._local.conn is None

    def test_keep_alive_every_misbehavior_is_typed(self, misbehaving):
        client = ServiceClient(misbehaving.url, timeout=1, keep_alive=True)
        with pytest.raises(ServiceError):
            client.compile(request())

    def test_keep_alive_down_server_is_typed(self):
        client = ServiceClient(
            "http://127.0.0.1:9", timeout=2, keep_alive=True
        )
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    def test_keep_alive_stale_connection_recovers_after_restart(
        self, tmp_path
    ):
        # The kept-alive socket points at a server that no longer
        # exists; the client must notice and redo the request on a
        # fresh connection (safe: requests are content-addressed).
        from repro.service.fleet import spawn_server_process

        cache = str(tmp_path / "cache")
        proc, url = spawn_server_process(
            cache, str(tmp_path / "log1.txt"), workers=1, port=0
        )
        client = ServiceClient(url, keep_alive=True, timeout=120)
        try:
            assert client.compile(request()).ok
        finally:
            proc.terminate()
            proc.wait(timeout=30)
        port = int(url.rsplit(":", 1)[1])
        proc2, url2 = spawn_server_process(
            cache, str(tmp_path / "log2.txt"), workers=1, port=port
        )
        try:
            outcome = client.compile(request())
            assert outcome.ok
            assert outcome.status == STATUS_HIT  # same shared store
        finally:
            proc2.terminate()
            proc2.wait(timeout=30)

    def test_retry_after_timeout_has_no_duplicate_side_effects(
        self, tmp_path
    ):
        # Attempt 1 times out client-side while the server is still
        # compiling; the retry must be absorbed by the store /
        # single-flight — the pipeline runs exactly once.
        gate = threading.Event()
        calls = []

        def gated(req, digest):
            calls.append(digest)
            if not gate.wait(timeout=30):
                raise TimeoutError("gate never opened")
            return fake_artifact(digest)

        service = CompileService(
            ServiceConfig(
                workers=2, cache_dir=str(tmp_path / "cache")
            ),
            compile_fn=gated,
        )
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=serve_forever, args=(server,))
        thread.start()
        try:

            def open_gate_then_wait(delay):
                gate.set()
                deadline = time.time() + 10
                while time.time() < deadline:
                    # Wait for the artifact, not just the executions
                    # counter: the counter increments before store.put,
                    # and a retry landing in that window would coalesce
                    # (status "miss") instead of store-hitting.
                    if (
                        service.stats()["executions"] >= 1
                        and len(service.store) >= 1
                    ):
                        return
                    time.sleep(0.02)

            client = ServiceClient(
                server.url,
                timeout=1,
                retries=1,
                sleep=open_gate_then_wait,
            )
            outcome = client.compile(request())
            assert outcome.ok
            assert outcome.status == STATUS_HIT
            assert len(calls) == 1
            assert service.executions == 1
        finally:
            gate.set()
            server.shutdown()
            thread.join(timeout=30)
            service.close()

    def test_shared_keepalive_client_survives_restart(self, tmp_path):
        """One keep-alive ServiceClient shared by two threads.  The
        server restarts between waves, half-closing both per-thread
        persistent sockets; each thread must transparently retry on a
        fresh connection, concurrently, without cross-thread
        interference."""
        from repro.service import CompileService, ServiceConfig
        from repro.service.http import make_server, serve_forever

        def new_service():
            return CompileService(
                ServiceConfig(cache_dir=None),
                compile_fn=lambda req, digest: fake_artifact(digest),
            )

        svc = new_service()
        server = make_server(svc, "127.0.0.1", 0)
        port = server.port
        thread = threading.Thread(
            target=serve_forever, args=(server,), daemon=True
        )
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{port}", timeout=30, keep_alive=True
        )

        def wave(results, index_base):
            def one(i):
                results[index_base + i] = client.compile(
                    request(R=64 + 32 * i, C=32)
                )

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)

        results = {}
        try:
            # Wave 1 establishes a persistent connection per thread.
            wave(results, 0)
            assert all(results[i].ok for i in range(2))

            # Restart on the same port: both cached sockets are now
            # half-closed — readable EOF, unusable for a new request.
            server.shutdown()
            thread.join(timeout=10)
            svc.close()
            svc = new_service()
            server = make_server(svc, "127.0.0.1", port)
            thread = threading.Thread(
                target=serve_forever, args=(server,), daemon=True
            )
            thread.start()

            # Wave 2, interleaved: each thread's first reuse attempt
            # hits its own stale socket and must recover independently.
            wave(results, 2)
            assert all(results[i].ok for i in range(2, 4))
        finally:
            server.shutdown()
            thread.join(timeout=10)
            svc.close()
            client.close()


class TestTraceRing:
    def test_trace_that_left_the_ring_is_404(self, served, monkeypatch):
        from repro.observability import state
        from repro.observability import tracer as tracer_module

        monkeypatch.setattr(tracer_module, "DEFAULT_TRACE_CAPACITY", 16)
        tracer = tracer_module.Tracer()
        monkeypatch.setattr(state, "_TRACER", tracer)
        client = ServiceClient(served.url, keep_alive=True)
        try:
            first = client.compile(request())
            assert client.trace(first.trace_id) is not None
            for n in range(1, 64):
                last = client.compile(request(R=64 + 32 * n, C=32))
                if not tracer.events_for_trace(first.trace_id):
                    break
            assert tracer.dropped > 0
            assert client.trace(first.trace_id) is None
            assert client.trace(last.trace_id) is not None
        finally:
            client.close()


class TestRecipeEndpoint:
    """Recipes are served at the same /v1/artifacts/<digest> route."""

    @pytest.fixture
    def served_real(self, tmp_path):
        """A live server running the real compile pipeline (recipes are
        only emitted by real compiles, not the fake compiler)."""
        service = CompileService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        )
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=serve_forever, args=(server,))
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            thread.join(timeout=30)
            service.close()

    def test_recipe_served_alongside_artifacts(self, served_real):
        client = ServiceClient(served_real.url)
        outcome = client.compile(request())
        artifact = client.artifact(outcome.digest)
        recipe_digest = artifact["recipe_digest"]
        assert recipe_digest and recipe_digest != outcome.digest
        recipe = client.artifact(recipe_digest)
        assert recipe["kind"] == "recipe"
        assert recipe["program"] == "sumRows"
        assert recipe["pipeline_version"] >= 3

    def test_artifact_embeds_recipe_digest_consistently(self, served_real):
        client = ServiceClient(served_real.url)
        outcome = client.compile(request())
        artifact = client.artifact(outcome.digest)
        recipe = client.artifact(artifact["recipe_digest"])
        assert recipe == artifact["recipe"]

    def test_unknown_digest_still_404(self, served_real):
        client = ServiceClient(served_real.url)
        assert client.artifact("ee" * 32) is None
