"""Recipes in the artifact store + PIPELINE_VERSION cache invalidation."""

import json

import pytest

from repro import GpuSession, OptimizationFlags, TESLA_K20C
from repro.ir import serialize as ir_serialize
from repro.ir.serialize import PIPELINE_VERSION, compile_digest
from repro.service import CompileRequest, CompileService, ServiceConfig
from repro.service.store import ArtifactStore, build_artifact


@pytest.fixture(scope="module")
def compiled_sum_rows():
    from repro.apps.sums import SUM_ROWS

    session = GpuSession(flags=OptimizationFlags.default())
    return session.compile(SUM_ROWS.build(), R=64, C=32)


@pytest.fixture
def recipe(compiled_sum_rows):
    return compiled_sum_rows.recipe()


class TestRecipeStore:
    def test_put_get_round_trip(self, tmp_path, recipe):
        store = ArtifactStore(str(tmp_path / "cache"))
        path = store.put_recipe(recipe)
        assert path.exists()
        assert store.get_recipe(recipe.content_digest()) == recipe.to_json()

    def test_put_accepts_plain_dict(self, tmp_path, recipe):
        store = ArtifactStore(str(tmp_path / "cache"))
        store.put_recipe(recipe.to_json())
        assert store.get_recipe(recipe.content_digest()) is not None

    def test_recipes_live_outside_objects_tree(self, tmp_path, recipe):
        """Recipe JSON must never land where ``get`` expects artifacts."""
        store = ArtifactStore(str(tmp_path / "cache"))
        path = store.put_recipe(recipe)
        assert store.recipes in path.parents
        assert store.objects not in path.parents
        # The artifact getter never sees (or quarantines) recipe files.
        assert store.get(recipe.content_digest()) is None
        assert path.exists()

    def test_missing_recipe_is_none(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        assert store.get_recipe("00" * 32) is None

    def test_corrupt_recipe_quarantined(self, tmp_path, recipe):
        store = ArtifactStore(str(tmp_path / "cache"))
        path = store.put_recipe(recipe)
        path.write_text("{ not json")
        assert store.get_recipe(recipe.content_digest()) is None
        assert not path.exists()

    def test_content_mismatch_quarantined(self, tmp_path, recipe):
        """A recipe filed under the wrong digest must not be served."""
        store = ArtifactStore(str(tmp_path / "cache"))
        bogus = "11" * 32
        path = store._recipe_path(bogus)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(recipe.to_json()))
        assert store.get_recipe(bogus) is None
        assert not path.exists()

    def test_malformed_digest_is_miss(self, tmp_path):
        """Wire input is untrusted: a traversal 'digest' is a miss that
        never touches the filesystem (mirrors ``get``)."""
        store = ArtifactStore(str(tmp_path / "cache"))
        assert store.get_recipe("../../../etc/passwd") is None
        with pytest.raises(ValueError):
            store._recipe_path("../../../etc/passwd")

    def test_digests_and_stats(self, tmp_path, recipe):
        store = ArtifactStore(str(tmp_path / "cache"))
        assert store.stats()["recipes"] == 0
        store.put_recipe(recipe)
        assert list(store.recipe_digests()) == [recipe.content_digest()]
        assert store.stats()["recipes"] == 1


class TestArtifactRecipeFields:
    def test_build_artifact_embeds_recipe(self, compiled_sum_rows):
        artifact = build_artifact("ab" * 32, compiled_sum_rows, compile_ms=5.0)
        recipe = compiled_sum_rows.recipe()
        assert artifact.recipe == recipe.to_json()
        assert artifact.recipe_digest == recipe.content_digest()


class TestServiceStoresRecipes:
    def test_compile_persists_recipe(self, tmp_path):
        service = CompileService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        )
        try:
            outcome = service.compile(
                CompileRequest(app="sumRows", sizes={"R": 64, "C": 32})
            )
            artifact = service.store.get(outcome.digest)
            assert artifact is not None
            assert artifact["recipe_digest"]
            stored = service.store.get_recipe(artifact["recipe_digest"])
            assert stored == artifact["recipe"]
            assert stored["kind"] == "recipe"
        finally:
            service.close()


class TestPipelineVersionInvalidation:
    def test_version_bumped_past_fused_pipeline(self):
        """The pass-based pipeline shipped as PIPELINE_VERSION 3."""
        assert PIPELINE_VERSION >= 3

    def test_bump_unreaches_old_artifacts(self, monkeypatch):
        """Digests under the pre-refactor version differ from today's, so
        artifacts cached before the pass refactor can never be served."""
        from repro.apps.sums import SUM_ROWS

        program = SUM_ROWS.build()
        now = compile_digest(
            program,
            device=TESLA_K20C,
            flags=OptimizationFlags.default(),
            strategy="multidim",
            sizes={"R": 64, "C": 32},
        )
        monkeypatch.setattr(
            ir_serialize, "PIPELINE_VERSION", PIPELINE_VERSION - 1
        )
        before = compile_digest(
            program,
            device=TESLA_K20C,
            flags=OptimizationFlags.default(),
            strategy="multidim",
            sizes={"R": 64, "C": 32},
        )
        assert before != now

    def test_old_digest_misses_in_store(self, tmp_path, monkeypatch):
        """End to end: an artifact stored under the pre-bump digest is a
        cache miss for the same request after the bump."""
        from repro.apps.sums import SUM_ROWS
        from repro.service.store import CompileArtifact

        store = ArtifactStore(str(tmp_path / "cache"))
        program = SUM_ROWS.build()
        monkeypatch.setattr(
            ir_serialize, "PIPELINE_VERSION", PIPELINE_VERSION - 1
        )
        old_digest = compile_digest(program, strategy="multidim")
        store.put(
            CompileArtifact(
                digest=old_digest,
                program="sumRows",
                strategy="multidim",
                device="Tesla K20c",
                cost={"total_us": 1.0, "kernels": []},
            )
        )
        monkeypatch.setattr(
            ir_serialize, "PIPELINE_VERSION", PIPELINE_VERSION
        )
        new_digest = compile_digest(program, strategy="multidim")
        assert store.get(new_digest) is None
        assert store.get(old_digest) is not None  # still on disk, unreached
