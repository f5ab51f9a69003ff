"""What the store serves is what the pipeline wrote.

Every object file is ``<sha256 of body>\\n<body>``.  A read that fails
verification is a miss plus one ``quarantine`` event, and the request
recompiles; nothing edited, wedged or poisoned is ever served.
"""

import hashlib
import json

import pytest

from repro.ir.serialize import canonical_json
from repro.resilience.faults import FaultPlan, inject_faults
from repro.service import (
    STATUS_ERROR,
    STATUS_HIT,
    STATUS_MISS,
    CompileRequest,
    CompileService,
    ServiceConfig,
)
from repro.service.store import (
    ArtifactStore,
    CompileArtifact,
    artifact_fingerprint,
)

SUM_ROWS = CompileRequest(app="sumRows", sizes={"R": 64, "C": 32})


def compile_once(cache_dir, request=SUM_ROWS):
    """One request through a fresh service on ``cache_dir``."""
    service = CompileService(ServiceConfig(workers=1, cache_dir=cache_dir))
    try:
        return service.compile(request)
    finally:
        service.close(save=False)


def edit_in_place(path, edit):
    """Apply ``edit`` to the stored document and write it back under the
    file's old header."""
    header, _, body = path.read_bytes().partition(b"\n")
    document = json.loads(body)
    edit(document)
    path.write_bytes(header + b"\n" + canonical_json(document).encode())


def _set_cuda(doc):
    doc["cuda_source"] = doc["cuda_source"].replace("__global__", "__GLOBAL__")


def _set_cost(doc):
    doc["cost"]["total_us"] = 0.5


def _set_provenance(doc):
    doc["provenance"]["kernels"] = []


def _set_recipe(doc):
    # recipe_digest is left stale on purpose.
    doc["recipe"]["kernels"] = []


class TestHandEditedObjects:
    @pytest.mark.parametrize(
        "edit",
        [_set_cuda, _set_cost, _set_provenance, _set_recipe],
        ids=["cuda_source", "cost.total_us", "provenance", "recipe"],
    )
    def test_edit_is_a_miss_and_a_quarantine(self, tmp_path, events, edit):
        cache = str(tmp_path / "cache")
        first = compile_once(cache)
        assert first.status == STATUS_MISS
        path = ArtifactStore(cache)._path(first.digest)
        edit_in_place(path, edit)

        again = compile_once(cache)
        assert again.status == STATUS_MISS
        quarantined = events("quarantine")
        assert len(quarantined) == 1
        assert quarantined[0]["reason"] == "hash_mismatch"
        assert quarantined[0]["tree"] == "objects"
        assert artifact_fingerprint(again.artifact) == artifact_fingerprint(
            first.artifact
        )
        # The recompile rewrote a verified object: the next one is a hit.
        assert compile_once(cache).status == STATUS_HIT

    def test_parent_format_object_recompiled_once(self, tmp_path, events):
        """An object in the old format (indented JSON, no header) fails
        the header check once; the recompile rewrites it."""
        cache = str(tmp_path / "cache")
        first = compile_once(cache)
        path = ArtifactStore(cache)._path(first.digest)
        with open(path, "w") as handle:
            json.dump(first.artifact, handle, indent=2)

        assert compile_once(cache).status == STATUS_MISS
        assert compile_once(cache).status == STATUS_HIT
        assert [e["reason"] for e in events("quarantine")] == [
            "hash_mismatch"
        ]


class TestWedgedDigest:
    @pytest.mark.parametrize("body", [b"[]", b"1", b'"x"', b"null"])
    def test_non_object_body_is_a_miss(self, tmp_path, body):
        cache = str(tmp_path / "cache")
        digest = SUM_ROWS.digest()
        store = ArtifactStore(cache)
        path = store._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(body)

        assert store.get(digest) is None
        assert not path.exists()
        path.write_bytes(body)
        assert compile_once(cache).status == STATUS_MISS
        assert store.get(digest) is not None

    def test_headed_non_object_is_not_object(self, tmp_path, events):
        store = ArtifactStore(str(tmp_path / "cache"))
        digest = "ab" * 32
        path = store._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = b"[]"
        path.write_bytes(
            hashlib.sha256(body).hexdigest().encode() + b"\n" + body
        )

        assert store.get(digest) is None
        assert not path.exists()
        assert [e["reason"] for e in events("quarantine")] == ["not_object"]


class TestPutChecksRecipeDigest:
    def test_stale_recipe_digest_writes_nothing(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        artifact = CompileArtifact(
            digest="ab" * 32,
            program="sumRows",
            strategy="multidim",
            device="Tesla K20c",
            recipe={"kind": "recipe", "kernels": []},
            recipe_digest="cd" * 32,
        )
        with pytest.raises(ValueError):
            store.put(artifact)
        assert not any(p.is_file() for p in store.objects.rglob("*"))
        assert not any(p.is_file() for p in store.recipes.rglob("*"))


class TestHeaders:
    def test_headers_are_content_digests(self, tmp_path):
        from repro.ir.serialize import content_digest
        from repro.optim.passes import Recipe

        cache = str(tmp_path / "cache")
        outcome = compile_once(cache)
        store = ArtifactStore(cache)

        header, _, body = store._path(outcome.digest).read_bytes().partition(
            b"\n"
        )
        document = json.loads(body)
        assert header.decode() == content_digest(document)
        assert document == store.get(outcome.digest)

        (recipe_path,) = [
            p for p in store.recipes.rglob("*.json") if p.is_file()
        ]
        header, _, body = recipe_path.read_bytes().partition(b"\n")
        recipe = Recipe.from_json(json.loads(body))
        assert recipe_path.stem == header.decode() == recipe.content_digest()
        assert recipe_path.stem == document["recipe_digest"]


class TestPoisonedCost:
    def test_non_finite_cost_is_a_typed_error(self, tmp_path):
        cache = str(tmp_path / "cache")
        request = CompileRequest(app="sumCols", sizes={"R": 128, "C": 128})
        service = CompileService(ServiceConfig(workers=1, cache_dir=cache))
        try:
            with inject_faults(FaultPlan.single("simulator", "nan")):
                outcome = service.compile(request)
            assert outcome.status == STATUS_ERROR
            assert outcome.error.error_type == "SimulationError"
            assert len(service.store) == 0
        finally:
            service.close(save=False)
