"""Tests for mapping-decision explanations.

The provenance record is the one rationale: ``repro map --explain``,
``CompiledProgram.report()`` and ``repro explain`` all print
:meth:`KernelProvenance.render`, and the fixed strategies' scores come
from :func:`repro.analysis.strategies.baseline_scores`.
"""

import pytest

from repro.analysis.mapping import Dim, LevelMapping, Mapping, Span, SpanAll
from repro.analysis.strategies import FIXED_STRATEGIES, baseline_scores
from repro.runtime.session import GpuSession

SIZES = {"R": 1024, "C": 65536}


def _record(program, strategy="multidim"):
    compiled = GpuSession(strategy=strategy, resilient=False).compile(
        program, **SIZES
    )
    return compiled, compiled.provenance().kernels[0]


class TestExplain:
    def test_chosen_mapping_scores_full(self, sum_rows_program):
        _, record = _record(sum_rows_program)
        satisfied = sum(
            v.weight for v in record.verdicts if v.satisfied and not v.hard
        )
        assert record.score is not None
        assert record.score == pytest.approx(satisfied)

    def test_verdicts_cover_every_constraint(self, sum_rows_program):
        compiled, record = _record(sum_rows_program)
        constraints = compiled.decisions[0].analysis.constraints.constraints
        assert len(record.verdicts) == len(constraints)

    def test_infeasible_mapping_reported(self, sum_rows_program):
        bad = Mapping(
            (
                LevelMapping(Dim.Y, 1, Span(1)),
                LevelMapping(Dim.X, 64, Span(1)),  # reduce needs Span(all)
            )
        )
        _, record = _record(sum_rows_program, bad)
        assert record.score is None
        assert any(v.hard and not v.satisfied for v in record.verdicts)
        assert "[VIOLATED] [hard/local]" in record.render()

    def test_sacrificed_constraints_listed(self, sum_rows_program):
        # a mapping that gives up the big coalescing win
        swapped = Mapping(
            (
                LevelMapping(Dim.X, 32, Span(1)),
                LevelMapping(Dim.Y, 32, SpanAll()),
            )
        )
        _, record = _record(sum_rows_program, swapped)
        sacrificed = [
            v for v in record.verdicts if not v.satisfied and not v.hard
        ]
        assert any("'m'" in v.description for v in sacrificed)
        assert "[MISS] [soft/local] level 1: sequential accesses to 'm'" in (
            record.render()
        )

    def test_baselines_compared(self, sum_rows_program):
        compiled, record = _record(sum_rows_program)
        ka = compiled.decisions[0].analysis
        scores = baseline_scores(ka.constraints, ka.level_sizes())
        assert set(scores) == set(FIXED_STRATEGIES)
        for score in scores.values():
            if score is not None:
                assert score <= record.score + 1e-9

    def test_render_structure(self, sum_rows_program):
        compiled, _ = _record(sum_rows_program)
        text = compiled.report()
        assert "score:" in text
        assert "[hard/local]" in text and "[soft/local]" in text
        assert "search telemetry:" in text
        assert "baseline strategies" in text

    def test_cli_explain_flag(self, capsys):
        from repro.cli import main

        assert main(
            ["map", "sumRows", "R=1024", "C=65536", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "attainable weight" in out
        assert "search telemetry:" in out
        assert "baseline strategies" in out


def _rationale_lines(text):
    """The verdict and candidate lines of every kernel in ``text``."""
    return [
        line
        for line in text.splitlines()
        if line.startswith(("  [", "  #", "      sacrifices:"))
    ]


@pytest.mark.parametrize(
    "app,sizes",
    [
        ("sumRows", ["R=1024", "C=4096"]),
        ("msmbuilder", ["P=256", "K=64", "D=32"]),
        ("gaussian", ["N=512", "T=0"]),
    ],
    ids=["sumRows", "msmbuilder", "gaussian"],
)
def test_one_record_on_every_rationale_surface(app, sizes, tmp_path, capsys):
    """``repro map --explain``, ``CompiledProgram.report()`` and
    ``repro explain`` on a saved artifact print the same verdicts and
    candidates: one record behind every rationale."""
    from repro.apps import ALL_APPS
    from repro.cli import main

    assert main(["map", app, *sizes, "--explain"]) == 0
    mapped = capsys.readouterr().out

    bindings = dict(s.split("=") for s in sizes)
    report = GpuSession().compile(
        ALL_APPS[app].build(), **{k: int(v) for k, v in bindings.items()}
    ).report()

    artifact = tmp_path / "prov.json"
    assert main(
        ["trace", app, *sizes, "-o", str(tmp_path / "trace.json"),
         "--provenance", str(artifact), "--no-run"]
    ) == 0
    capsys.readouterr()
    assert main(["explain", str(artifact)]) == 0
    explained = capsys.readouterr().out

    lines = _rationale_lines(explained)
    assert any(line.startswith("  #1 ") for line in lines)
    assert any(line.startswith("  [") for line in lines)
    assert _rationale_lines(mapped) == lines
    assert _rationale_lines(report) == lines
