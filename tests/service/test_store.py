"""Persistent content-addressed artifact store."""

import pytest

from repro.ir.serialize import canonical_json, content_digest
from repro.observability import capture
from repro.service.store import (
    ARTIFACT_VERSION,
    QUARANTINE_REASONS,
    ArtifactStore,
    CompileArtifact,
    build_artifact,
    is_valid_digest,
)


def framed(document) -> bytes:
    """An object file for ``document``: its content digest, a newline,
    then its canonical JSON."""
    return (
        content_digest(document).encode() + b"\n"
        + canonical_json(document).encode()
    )


def make_artifact(digest: str = "ab" * 32, **overrides) -> CompileArtifact:
    fields = dict(
        digest=digest,
        program="sumRows",
        strategy="multidim",
        device="Tesla K20c",
        sizes={"R": 64, "C": 32},
        flags={"prealloc": True, "layout_opt": True, "shared_memory": True},
        mappings=["L0[dimy, 32, span(1)]"],
        cuda_source="__global__ void k() {}",
        cost={"total_us": 12.5, "kernels": [{"total_us": 12.5}]},
        compile_ms=3.0,
    )
    fields.update(overrides)
    return CompileArtifact(**fields)


class TestArtifactRoundTrip:
    def test_version_is_stamped(self):
        assert make_artifact().to_dict()["version"] == ARTIFACT_VERSION


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        artifact = make_artifact()
        path = store.put(artifact)
        assert path.exists()
        assert store.get(artifact.digest) == artifact.to_dict()

    def test_sharded_layout(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        digest = "cd" * 32
        path = store.put(make_artifact(digest))
        assert path.parent.name == digest[:2]
        assert path.name == f"{digest}.json"

    def test_missing_digest_is_none(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        assert store.get("00" * 32) is None

    def test_corrupt_object_quarantined(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        artifact = make_artifact()
        path = store.put(artifact)
        path.write_text("{ not json")
        assert store.get(artifact.digest) is None
        assert not path.exists(), "corrupt object should be removed"

    def test_version_skew_quarantined(self, tmp_path, events):
        # A correctly-headed body, so the version check (not the hash
        # check) is what refuses it.
        store = ArtifactStore(str(tmp_path / "cache"))
        artifact = make_artifact()
        path = store.put(artifact)
        data = artifact.to_dict()
        data["version"] = 999
        path.write_bytes(framed(data))
        with capture() as obs:
            assert store.get(artifact.digest) is None
        assert not path.exists()
        (event,) = events("quarantine")
        assert event["reason"] == "version_skew"
        assert event["reason"] in QUARANTINE_REASONS
        counters = obs.metrics.to_dict()["counters"]
        assert counters["service.store.quarantined"] == 1

    def test_digest_mismatch_quarantined(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        artifact = make_artifact()
        path = store.put(artifact)
        # An object whose content claims a different digest than its
        # filename is either tampering or a copy error; drop it.
        wrong = store._path("ef" * 32)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(path.read_text())
        assert store.get("ef" * 32) is None
        assert not wrong.exists()

    def test_delete_and_len(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        store.put(make_artifact("ab" * 32))
        store.put(make_artifact("cd" * 32))
        assert len(store) == 2
        assert store.delete("ab" * 32)
        assert not store.delete("ab" * 32)
        assert len(store) == 1

    def test_clear(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        for i in range(4):
            store.put(make_artifact(f"{i:02d}" * 32))
        assert store.clear() == 4
        assert len(store) == 0
        assert store.clear() == 0

    def test_digests_skip_temp_files(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        artifact = make_artifact()
        path = store.put(artifact)
        (path.parent / ".tmp-leftover.json").write_text("partial")
        assert list(store.digests()) == [artifact.digest]

    def test_stats(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        assert store.stats()["artifacts"] == 0
        store.put(make_artifact())
        stats = store.stats()
        assert stats["artifacts"] == 1
        assert stats["bytes"] > 0


class TestDigestSafety:
    """Digests come off the wire; only well-formed ones may touch disk."""

    def test_digest_validation(self):
        assert is_valid_digest("ab" * 32)
        assert not is_valid_digest("AB" * 32)          # case matters
        assert not is_valid_digest("ab" * 31)          # too short
        assert not is_valid_digest("zz" * 32)          # not hex
        assert not is_valid_digest("../../etc/passwd")
        assert not is_valid_digest("")
        assert not is_valid_digest(None)

    def test_traversal_digest_is_miss_and_touches_nothing(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        # A *.json file outside the store that would be quarantined
        # (unlinked) if the traversal ever reached open().
        victim = tmp_path / "victim.json"
        victim.write_text("{ not json")
        assert store.get("../../victim") is None
        assert victim.exists()
        assert victim.read_text() == "{ not json"

    def test_delete_rejects_malformed_digest(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        victim = tmp_path / "victim.json"
        victim.write_text("data")
        assert not store.delete("../../victim")
        assert victim.exists()

    def test_put_rejects_malformed_digest(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        with pytest.raises(ValueError):
            store.put(make_artifact("../../escape"))
        assert not (tmp_path / "escape.json").exists()

    def test_quarantine_confined_to_objects_tree(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        outside = tmp_path / "outside.json"
        outside.write_text("data")
        store._quarantine(outside, store.objects, "hash_mismatch")
        assert outside.exists(), "quarantine must never leave the store"
        inside = store.put(make_artifact())
        store._quarantine(inside, store.objects, "hash_mismatch")
        assert not inside.exists()


class TestConcurrencyStress:
    """Satellite: hammer one store root from threads *and* a second
    process — no torn reads, no lost writes, quarantine stays inside
    ``objects/``."""

    @staticmethod
    def _digest(tag: str) -> str:
        import hashlib

        return hashlib.sha256(tag.encode()).hexdigest()

    def test_threads_and_second_process(self, tmp_path):
        import os
        import subprocess
        import sys
        import threading

        root = str(tmp_path / "cache")
        store = ArtifactStore(root)
        victim = tmp_path / "victim.json"
        victim.write_text("{ not json")  # must survive every quarantine

        digests = [self._digest(f"obj-{i}") for i in range(24)]
        corrupt_targets = digests[:6]
        stop = threading.Event()
        errors = []

        def writer(slice_start: int):
            try:
                while not stop.is_set():
                    for digest in digests[slice_start::3]:
                        store.put(make_artifact(digest))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(("writer", exc))

        def reader():
            try:
                i = 0
                while not stop.is_set():
                    digest = digests[i % len(digests)]
                    i += 1
                    artifact = store.get(digest)
                    # The one forbidden outcome is a torn read: a parsed
                    # artifact that is not exactly what a put wrote.
                    if artifact is not None:
                        assert artifact["digest"] == digest
                        assert artifact == make_artifact(digest).to_dict()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(("reader", exc))

        def corruptor():
            try:
                while not stop.is_set():
                    for digest in corrupt_targets:
                        path = store._path(digest)
                        try:
                            path.write_text("{ torn write")
                        except OSError:
                            pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(("corruptor", exc))

        threads = (
            [threading.Thread(target=writer, args=(s,)) for s in range(3)]
            + [threading.Thread(target=reader) for _ in range(3)]
            + [threading.Thread(target=corruptor)]
        )
        for thread in threads:
            thread.start()

        # A genuinely separate process works the same root mid-storm.
        script = (
            "import hashlib, sys\n"
            "from repro.service.store import ArtifactStore\n"
            "from repro.service.store import CompileArtifact\n"
            "def art(d):\n"
            "    return CompileArtifact(\n"
            "        digest=d, program='sumRows', strategy='multidim',\n"
            "        device='Tesla K20c', sizes={'R': 64, 'C': 32},\n"
            "        flags={'prealloc': True, 'layout_opt': True,\n"
            "               'shared_memory': True},\n"
            "        mappings=['L0[dimy, 32, span(1)]'],\n"
            "        cuda_source='__global__ void k() {}',\n"
            "        cost={'total_us': 12.5,\n"
            "              'kernels': [{'total_us': 12.5}]},\n"
            "        compile_ms=3.0)\n"
            "store = ArtifactStore(sys.argv[1])\n"
            "mine = [hashlib.sha256(f'proc-{i}'.encode()).hexdigest()\n"
            "        for i in range(12)]\n"
            "for d in mine:\n"
            "    store.put(art(d))\n"
            "theirs = [hashlib.sha256(f'obj-{i}'.encode()).hexdigest()\n"
            "          for i in range(24)]\n"
            "for _ in range(20):\n"
            "    for d in mine + theirs:\n"
            "        a = store.get(d)\n"
            "        assert a is None or a['digest'] == d, d\n"
            "for d in mine:\n"
            "    assert store.get(d) is not None, d\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", script, root],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert proc.returncode == 0, proc.stderr
        assert not errors, errors

        # No lost writes: every digest the corruptor never touched is
        # present and intact (puts are atomic, so a valid object can
        # never be quarantined by a racing reader).
        for digest in digests[6:]:
            assert store.get(digest) == make_artifact(digest).to_dict(), digest
        for i in range(12):
            digest = self._digest(f"proc-{i}")
            assert store.get(digest) == make_artifact(digest).to_dict(), digest

        # Corrupted objects converge after one clean re-put.
        for digest in corrupt_targets:
            store.put(make_artifact(digest))
            assert store.get(digest) == make_artifact(digest).to_dict(), digest

        # Quarantine never left the objects tree.
        assert victim.exists()
        assert victim.read_text() == "{ not json"
        strays = [
            p
            for p in tmp_path.rglob("*")
            if p.is_file()
            and p != victim
            and (tmp_path / "cache" / "objects") not in p.parents
        ]
        assert strays == [], strays


class TestBuildArtifact:
    def test_extracts_compiled_program(self):
        from repro.apps import resolve_app
        from repro.runtime import GpuSession

        app = resolve_app("sumRows")
        compiled = GpuSession().compile(app.build(), R=64, C=32)
        artifact = build_artifact("ab" * 32, compiled, compile_ms=5.0)
        assert artifact.program == "sumRows"
        assert artifact.mappings
        assert "__global__" in artifact.cuda_source
        assert artifact.cost["total_us"] > 0
        assert artifact.cost["kernels"]
        assert artifact.provenance is not None
        assert artifact.created_at > 0

    def test_recipe_failure_is_an_error_not_a_recipe_less_artifact(
        self, tmp_path, monkeypatch
    ):
        """Recipe assembly only reads what the compile recorded, so a
        failure there is a bug: the request errors and nothing is
        stored, instead of an artifact silently stored without one."""
        from repro.optim.passes import recipe
        from repro.service import (
            STATUS_ERROR, CompileRequest, CompileService, ServiceConfig,
        )

        def broken(compiled):
            raise RuntimeError("recipe assembly bug")

        monkeypatch.setattr(recipe, "build_compile_recipe", broken)
        service = CompileService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        )
        try:
            req = CompileRequest(app="sumRows", sizes={"R": 64, "C": 32})
            outcome = service.compile(req)
            assert outcome.status == STATUS_ERROR
            assert "recipe assembly bug" in outcome.error.message
            assert len(service.store) == 0
            assert service.store.get(req.digest()) is None
        finally:
            service.close(save=False)
