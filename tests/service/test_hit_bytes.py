"""Hits serve the bytes the store verified.

Every read checks the object file's header; the parse-based checks run
once per distinct body.  A hit hands on the verified body, the HTTP
layer splices it into the response as it is, and the fleet router's LRU
keeps body bytes.  What goes over the wire parses to the same value as
``outcome.to_dict()``, and in-process readers still see a plain dict.
"""

import hashlib
import http.client
import json
import threading
import time

import pytest

from repro.ir.serialize import canonical_json, content_digest
from repro.service import (
    STATUS_HIT,
    STATUS_MISS,
    CompileRequest,
    CompileService,
    FleetConfig,
    ServiceConfig,
    local_fleet,
)
from repro.service import api as api_module
from repro.service import http as http_module
from repro.service import store as store_module
from repro.service.api import CompileOutcome
from repro.service.fleet import SERVED_BY_LRU, SERVED_BY_STORE, FleetRouter
from repro.service.http import make_server, serve_forever
from repro.service.store import (
    ArtifactStore,
    CompileArtifact,
    StoredDocument,
    artifact_fingerprint,
)

from .test_fleet import StubBackend
from .test_served_bytes import _set_cuda, edit_in_place
from .test_store import framed

SUM_ROWS = CompileRequest(app="sumRows", sizes={"R": 64, "C": 32})
RECIPE = {"kind": "recipe", "kernels": [], "program": "fake"}


def fake_artifact(digest: str) -> CompileArtifact:
    return CompileArtifact(
        digest=digest,
        program="fake",
        strategy="multidim",
        device="Tesla K20c",
        cost={"total_us": 1.0, "kernels": []},
        recipe=RECIPE,
        recipe_digest=content_digest(RECIPE),
    )


def stored_body(store: ArtifactStore, digest: str) -> bytes:
    """The body of an artifact's object file, after its header line."""
    return store._path(digest).read_bytes().partition(b"\n")[2]


class Recording:
    """A service-contract proxy that keeps every outcome it returns."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.outcomes = []

    def compile(self, request):
        outcome = self.inner.compile(request)
        self.outcomes.append(outcome)
        return outcome

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture
def serve():
    """``serve(service)``: a live server over ``service`` (recorded)."""
    running = []

    def start(service):
        recording = Recording(service)
        server = make_server(recording, "127.0.0.1", 0)
        thread = threading.Thread(target=serve_forever, args=(server,))
        thread.start()
        running.append((server, thread, service))
        return server, recording

    yield start
    for server, thread, service in running:
        server.shutdown()
        thread.join(timeout=30)
        service.close()


def raw(server, method: str, path: str, payload=None) -> bytes:
    """One request on a fresh connection; the response body bytes."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        conn.close()


def post(server, request: CompileRequest) -> dict:
    return json.loads(raw(server, "POST", "/v1/compile", request.to_dict()))


def fake_service(cache_dir, gate=None) -> CompileService:
    """A service whose compiles return :func:`fake_artifact`, after
    ``gate`` opens when one is given."""

    def compile_fn(req, digest):
        assert gate is None or gate.wait(timeout=30)
        return fake_artifact(digest)

    return CompileService(
        ServiceConfig(workers=2, cache_dir=str(cache_dir)),
        compile_fn=compile_fn,
    )


def wait_for(condition, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def assert_wire(response: dict, outcome: CompileOutcome, store, digest):
    """The response is ``outcome.to_dict()``, whose artifact is the
    stored body."""
    assert response == outcome.to_dict()
    assert response["artifact"] == json.loads(stored_body(store, digest))


class TestWireValue:
    def test_service_miss_hit_and_coalesced(self, tmp_path, serve):
        gate = threading.Event()
        service = fake_service(tmp_path / "cache", gate)
        server, recording = serve(service)
        request = SUM_ROWS
        responses = []
        threads = [
            threading.Thread(target=lambda: responses.append(
                post(server, request)
            ))
            for _ in range(2)
        ]
        threads[0].start()
        wait_for(lambda: service.stats()["cache_misses"] == 1)
        threads[1].start()
        wait_for(lambda: service.stats()["coalesced"] == 1)
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
        hit = post(server, request)

        miss_outcome, coalesced_outcome, hit_outcome = recording.outcomes
        assert coalesced_outcome is miss_outcome
        digest = miss_outcome.digest
        for response in responses:
            assert_wire(response, miss_outcome, service.store, digest)
        assert hit["status"] == STATUS_HIT
        assert_wire(hit, hit_outcome, service.store, digest)

    def test_fleet_backend_miss_lru_hit_and_store_hit(self, tmp_path, serve):
        fleet = local_fleet(
            2,
            str(tmp_path / "cache"),
            fleet_config=FleetConfig(lru_capacity=4, probe_interval_s=0),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        server, recording = serve(fleet)
        miss = post(server, SUM_ROWS)
        lru_hit = post(server, SUM_ROWS)
        fleet.lru.clear()
        store_hit = post(server, SUM_ROWS)

        assert miss["served_by"].startswith("backend-")
        assert lru_hit["served_by"] == SERVED_BY_LRU
        assert store_hit["served_by"] == SERVED_BY_STORE
        digest = miss["digest"]
        for response, outcome in zip(
            (miss, lru_hit, store_hit), recording.outcomes
        ):
            assert_wire(response, outcome, fleet.store, digest)

    def test_artifact_route_serves_object_bodies_verbatim(
        self, tmp_path, serve
    ):
        service = fake_service(tmp_path / "cache")
        server, _ = serve(service)
        digest = post(server, SUM_ROWS)["digest"]
        store = service.store

        artifact = raw(server, "GET", f"/v1/artifacts/{digest}")
        assert artifact == stored_body(store, digest)
        recipe_digest = json.loads(artifact)["recipe_digest"]
        recipe = raw(server, "GET", f"/v1/artifacts/{recipe_digest}")
        assert recipe == store._recipe_path(recipe_digest).read_bytes(
        ).partition(b"\n")[2]
        assert json.loads(recipe) == RECIPE


class CountingJson:
    """Stands in for the ``json`` module; records what is decoded and
    encoded."""

    def __init__(self) -> None:
        self.decoded = []
        self.encoded = []

    def loads(self, data, *args, **kwargs):
        self.decoded.append(data)
        return json.loads(data, *args, **kwargs)

    def dumps(self, obj, *args, **kwargs):
        self.encoded.append(obj)
        return json.dumps(obj, *args, **kwargs)

    def canonical_json(self, obj):
        self.encoded.append(obj)
        return canonical_json(obj)

    def __getattr__(self, name):
        return getattr(json, name)

    def artifact_work(self):
        """(decodes, encodes) that touched an artifact."""
        decodes = [
            d for d in self.decoded
            if b"cuda_source" in (d if isinstance(d, bytes) else d.encode())
        ]
        encodes = [
            o for o in self.encoded if "cuda_source" in json.dumps(o)
        ]
        return decodes, encodes


@pytest.fixture
def counting(monkeypatch):
    counter = CountingJson()
    for module in (store_module, api_module, http_module):
        monkeypatch.setattr(module, "json", counter)
    monkeypatch.setattr(store_module, "canonical_json", counter.canonical_json)
    return counter


class TestSavedWork:
    def test_verified_hit_neither_parses_nor_encodes(
        self, tmp_path, serve, counting
    ):
        service = fake_service(tmp_path / "cache")
        server, _ = serve(service)
        assert post(server, SUM_ROWS)["status"] == STATUS_MISS
        counting.decoded.clear()
        counting.encoded.clear()

        # The first read of the body verifies it: one parse.
        assert post(server, SUM_ROWS)["status"] == STATUS_HIT
        decodes, encodes = counting.artifact_work()
        assert len(decodes) == 1 and not encodes
        counting.decoded.clear()

        assert post(server, SUM_ROWS)["status"] == STATUS_HIT
        assert counting.artifact_work() == ([], [])

    def test_lru_hit_neither_parses_nor_encodes(
        self, tmp_path, serve, counting
    ):
        fleet = local_fleet(
            1,
            str(tmp_path / "cache"),
            fleet_config=FleetConfig(lru_capacity=4, probe_interval_s=0),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        server, _ = serve(fleet)
        post(server, SUM_ROWS)
        counting.decoded.clear()
        counting.encoded.clear()

        assert post(server, SUM_ROWS)["served_by"] == SERVED_BY_LRU
        assert counting.artifact_work() == ([], [])


class TestInProcessArtifact:
    def test_artifact_is_a_plain_dict(self, tmp_path):
        gate = threading.Event()
        service = fake_service(tmp_path / "cache", gate)
        try:
            first = service.submit(SUM_ROWS)
            second = service.submit(SUM_ROWS)
            assert (first.role, second.role) == (STATUS_MISS, "coalesced")
            gate.set()
            outcomes = [first.result(30), second.result(30)]
            outcomes.append(service.compile(SUM_ROWS))
            assert outcomes[2].status == STATUS_HIT
            for outcome in outcomes:
                assert type(outcome.artifact) is dict
                json.dumps(outcome.artifact)
                assert outcome.artifact == json.loads(
                    stored_body(service.store, outcome.digest)
                )
        finally:
            service.close(save=False)

    def test_dict_artifact_still_constructs(self):
        artifact = fake_artifact("ab" * 32).to_dict()
        outcome = CompileOutcome(
            digest="ab" * 32, status=STATUS_MISS, artifact=artifact
        )
        assert outcome.artifact is artifact
        assert json.loads(outcome.to_json_bytes()) == outcome.to_dict()
        assert outcome.document.body == canonical_json(artifact).encode()


def lru_entry(fleet: FleetRouter, digest: str) -> StoredDocument:
    entry = fleet.lru._entries[digest]
    assert isinstance(entry, StoredDocument)
    assert entry._parsed is None, "the LRU entry holds a parsed dict"
    return entry


class TestLruHoldsBytes:
    def test_backend_miss_and_store_hit(self, tmp_path):
        fleet = local_fleet(
            2,
            str(tmp_path / "cache"),
            fleet_config=FleetConfig(lru_capacity=4, probe_interval_s=0),
            compile_fn=lambda req, digest: fake_artifact(digest),
        )
        try:
            miss = fleet.compile(SUM_ROWS)
            assert miss.served_by.startswith("backend-")
            body = stored_body(fleet.store, miss.digest)
            assert lru_entry(fleet, miss.digest).body == body

            fleet.lru.clear()
            assert fleet.compile(SUM_ROWS).served_by == SERVED_BY_STORE
            assert lru_entry(fleet, miss.digest).body == body
        finally:
            fleet.close()

    def test_decoded_dict_is_encoded_once_on_entry(self):
        fleet = FleetRouter(
            [StubBackend("remote")],
            FleetConfig(lru_capacity=4, probe_interval_s=0),
        )
        try:
            outcome = fleet.compile(SUM_ROWS)
            entry = lru_entry(fleet, outcome.digest)
            assert entry.body == canonical_json(outcome.artifact).encode()
            assert entry is outcome.document
        finally:
            fleet.close()


def reframe(edit):
    """An edit that rewrites an object file with a correct header over
    the edited body."""

    def apply(path):
        document = json.loads(path.read_bytes().partition(b"\n")[2])
        edit(document)
        path.write_bytes(framed(document))

    return apply


def _set_digest(doc):
    doc["digest"] = "ef" * 32


def _set_version(doc):
    doc["version"] = 999


class TestVerifiedSkip:
    """On one running service, after a verified hit, a changed body is
    never served: the skip is keyed on the body's hash, not the
    digest."""

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda path: edit_in_place(path, _set_cuda), "hash_mismatch"),
            (reframe(_set_digest), "digest_mismatch"),
            (reframe(_set_version), "version_skew"),
        ],
        ids=["edit-in-place", "other-digest", "version-999"],
    )
    def test_changed_body_after_verified_hit(
        self, tmp_path, events, edit, reason
    ):
        service = CompileService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        )
        try:
            first = service.compile(SUM_ROWS)
            assert first.status == STATUS_MISS
            assert service.compile(SUM_ROWS).status == STATUS_HIT
            edit(service.store._path(first.digest))

            again = service.compile(SUM_ROWS)
            assert again.status == STATUS_MISS
            assert [e["reason"] for e in events("quarantine")] == [reason]
            assert artifact_fingerprint(again.artifact) == (
                artifact_fingerprint(first.artifact)
            )
            assert service.compile(SUM_ROWS).status == STATUS_HIT
        finally:
            service.close(save=False)

    def test_threads_never_get_a_refused_body(self, tmp_path, monkeypatch):
        """Readers racing writers and a corruptor (more threads than
        cores, a short switch interval) only ever get a body a put
        wrote, and the verified map stays within its bound."""
        import random
        import sys

        monkeypatch.setattr(store_module, "VERIFIED_CAPACITY", 4)
        store = ArtifactStore(str(tmp_path / "cache"))
        digests = [hashlib.sha256(b"%d" % i).hexdigest() for i in range(8)]

        def variant(digest, version):
            artifact = fake_artifact(digest)
            artifact.cuda_source = f"// v{version}"
            return artifact

        good = {
            d: {variant(d, v).document().body for v in range(2)}
            for d in digests
        }
        refused = []
        for digest in digests:
            for edit in (_set_digest, _set_version):
                document = variant(digest, 0).to_dict()
                edit(document)
                refused.append((digest, framed(document)))
        for digest in digests:
            store.put(variant(digest, 0))
        stop = threading.Event()
        errors = []

        def loop(step):
            rng = random.Random(threading.get_ident())
            try:
                while not stop.is_set():
                    step(rng)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                stop.set()

        def write(rng):
            digest = rng.choice(digests)
            store.put(variant(digest, rng.randrange(2)))

        def corrupt(rng):
            digest, blob = rng.choice(refused)
            store._path(digest).write_bytes(blob)

        def read(rng):
            digest = rng.choice(digests)
            document = store.get(digest)
            assert document is None or document.body in good[digest]
            assert len(store._verified) <= 4

        steps = [write, write, corrupt] + [read] * 4
        threads = [
            threading.Thread(target=loop, args=(step,)) for step in steps
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

    def test_verified_map_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "VERIFIED_CAPACITY", 8)
        store = ArtifactStore(str(tmp_path / "cache"))
        digests = [hashlib.sha256(b"%d" % i).hexdigest() for i in range(20)]
        for digest in digests:
            store.put(fake_artifact(digest))
        for _ in range(2):
            for digest in digests:
                assert store.get(digest)["digest"] == digest
                assert len(store._verified) <= 8
