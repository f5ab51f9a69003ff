"""Mapping-provenance records: construction, serialization, rendering."""

import pytest

from repro.analysis import search as search_module
from repro.errors import ReproError, SearchError
from repro.observability.provenance import (
    PROVENANCE_VERSION,
    CompileProvenance,
    KernelProvenance,
    VerdictRecord,
    build_provenance,
    load_provenance,
)
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultPlan, inject_faults
from repro.runtime.session import GpuSession
from tests.conftest import patch_repro_bindings


@pytest.fixture
def compiled(sum_cols_program):
    return GpuSession().compile(sum_cols_program, R=128, C=128)


class TestBuildProvenance:
    def test_captures_compile_identity(self, compiled):
        prov = build_provenance(compiled)
        assert prov.program == "sumCols"
        assert prov.device == compiled.device.name
        assert prov.strategy == "multidim"
        assert prov.sizes == {"R": 128, "C": 128}
        assert len(prov.kernels) == len(compiled.decisions)

    def test_kernel_record_matches_decision(self, compiled):
        kernel = build_provenance(compiled).kernels[0]
        assert kernel.mapping == str(compiled.decisions[0].mapping)
        assert kernel.search is not None
        assert kernel.search["strategy"] in (
            "vectorized", "reference-fallback"
        )
        assert kernel.verdicts
        # The chosen mapping satisfies every hard constraint.
        assert all(v.satisfied for v in kernel.verdicts if v.hard)

    def test_candidates_ranked_with_deltas(self, compiled):
        kernel = build_provenance(compiled).kernels[0]
        assert len(kernel.candidates) == 5
        assert [c.rank for c in kernel.candidates] == [1, 2, 3, 4, 5]
        assert kernel.candidates[0].score_delta == 0.0
        scores = [c.score for c in kernel.candidates]
        assert scores == sorted(scores, reverse=True)
        for cand in kernel.candidates:
            assert cand.score_delta == pytest.approx(
                kernel.candidates[0].score - cand.score
            )
            assert cand.verdicts

    def test_candidates_are_the_deciding_searchs_ranking(self, compiled):
        kernel = build_provenance(compiled).kernels[0]
        ranked = compiled.decisions[0].search.ranked
        assert [(c.mapping, c.score, c.dop) for c in kernel.candidates] == [
            (str(sm.mapping), sm.score, sm.dop) for sm in ranked
        ]

    def test_ranks_without_searching_again(self, compiled, monkeypatch):
        """Provenance reads the compile's own ranking: a search that
        fails after the compile cannot empty it."""

        def no_search(*args, **kwargs):
            raise SearchError("search must not run while building provenance")

        patch_repro_bindings(
            monkeypatch, search_module, "search_mapping", no_search
        )
        kernel = build_provenance(compiled).kernels[0]
        assert kernel.note == ""
        assert len(kernel.candidates) == 5

    def test_session_provenance_is_lazy_and_cached(self, compiled):
        assert compiled._provenance is None
        prov = compiled.provenance()
        assert compiled.provenance() is prov

    def test_fixed_strategy_notes_no_search(self, sum_rows_program):
        compiled = GpuSession(strategy="1d").compile(
            sum_rows_program, R=64, C=64
        )
        kernel = build_provenance(compiled).kernels[0]
        assert "fixed strategy" in kernel.note
        assert kernel.candidates == []

    def test_explicit_mapping_strategy_note_prints_the_mapping(
        self, sum_rows_program
    ):
        from repro.analysis.mapping import (
            Dim,
            LevelMapping,
            Mapping,
            Span,
            seq_level,
        )

        mapping = Mapping((LevelMapping(Dim.X, 256, Span(1)), seq_level()))
        compiled = GpuSession(strategy=mapping).compile(
            sum_rows_program, R=64, C=64
        )
        kernel = build_provenance(compiled).kernels[0]
        assert kernel.note == (
            "fixed strategy 'L0[dimx, 256, span(1)] L1[seq]': mapping "
            "chosen structurally, no candidate search ran"
        )

    def test_degraded_search_notes_fallback(self, sum_cols_program):
        compiled = GpuSession(budget=Budget(max_nodes=3)).compile(
            sum_cols_program, R=128, C=128
        )
        assert compiled.degraded
        prov = build_provenance(compiled)
        assert prov.degradations
        kernel = prov.kernels[0]
        assert "fallback" in kernel.note
        assert kernel.candidates == []

    def test_failed_search_notes_fallback(self, sum_cols_program):
        """A search that raised leaves the fallback mapping and no
        ranking: provenance says so instead of ranking candidates from
        another search that did not choose the mapping."""
        with inject_faults(FaultPlan.single("search", "exception")):
            compiled = GpuSession().compile(sum_cols_program, R=128, C=128)
        assert compiled.decisions[0].search is None
        kernel = build_provenance(compiled).kernels[0]
        assert kernel.mapping == str(compiled.decisions[0].mapping)
        assert kernel.search is None
        assert "search failed" in kernel.note
        assert "fallback" in kernel.note
        assert kernel.candidates == []


class TestSerialization:
    def test_artifact_round_trips(self, compiled, tmp_path):
        prov = build_provenance(compiled)
        path = prov.write(str(tmp_path / "prov.json"))
        loaded = load_provenance(path)
        assert loaded.to_dict() == prov.to_dict()

    def test_version_checked_on_load(self):
        data = CompileProvenance(program="p", device="d", strategy="s").to_dict()
        assert data["version"] == PROVENANCE_VERSION
        data["version"] = PROVENANCE_VERSION + 1
        with pytest.raises(ReproError, match="version"):
            CompileProvenance.from_dict(data)

    def test_kernel_record_round_trips(self):
        kernel = KernelProvenance(
            index=0, depth=2, level_sizes=[8, 8],
            mapping="L0[dimx, 32, span(1)]", score=1.5, max_score=2.0,
            dop=64, search={"strategy": "vectorized"},
            verdicts=[VerdictRecord("c", True, "local", True)],
        )
        assert KernelProvenance.from_dict(kernel.to_dict()) == kernel


class TestRendering:
    def test_render_explains_the_winner(self, compiled):
        text = build_provenance(compiled).render()
        assert "Mapping provenance: sumCols" in text
        assert "winner:" in text
        assert "constraints under the winner:" in text
        assert "candidates:" in text
        assert "[hard/local]" in text

    def test_verdict_render_marks(self):
        ok = VerdictRecord("fine", hard=False, scope="local", satisfied=True,
                           weight=2.0)
        miss = VerdictRecord("lost", hard=False, scope="global",
                             satisfied=False, weight=1.0)
        violated = VerdictRecord("broken", hard=True, scope="local",
                                 satisfied=False)
        assert "ok" in ok.render() and "w=2" in ok.render()
        assert "MISS" in miss.render()
        assert "VIOLATED" in violated.render()
