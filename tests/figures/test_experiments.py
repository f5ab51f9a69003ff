"""Tests for the experiment harness: every figure regenerates and its
qualitative claims hold."""

import pytest

from repro.figures import EXPERIMENTS, run_all, run_experiment
from repro.figures.tables import render_table


@pytest.fixture(scope="module")
def results():
    """Run every experiment once per test module."""
    return {eid: run_experiment(eid) for eid in EXPERIMENTS}


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2",
            "fig3", "fig7", "fig12", "fig13", "fig14", "fig16", "fig17",
            "passorder",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_render(self, results):
        text = results["fig3"].render()
        assert "Figure 3" in text
        assert "sumCols" in text


class TestFig3:
    def test_multidim_time_constant(self, results):
        times = results["fig3"].column_values("multidim_ms")
        assert max(times) / min(times) < 1.3

    def test_one_d_worst_on_skew(self, results):
        rows = {
            (r["kernel"], r["shape"]): r for r in results["fig3"].rows
        }
        # 1D collapses on the shapes with a narrow outer level / strided
        # inner access
        assert rows[("sumCols", "[64K,1K]")]["1d"] > 5
        assert rows[("sumRows", "[1K,64K]")]["1d"] > 5
        # but is fine when the outer level is wide and coalesced
        assert rows[("sumCols", "[1K,64K]")]["1d"] < 2

    def test_fixed_2d_bad_on_sum_cols(self, results):
        for row in results["fig3"].rows:
            if row["kernel"] == "sumCols":
                assert row["thread-block/thread"] > 5
                assert row["warp-based"] > 5

    def test_warp_good_on_sum_rows(self, results):
        for row in results["fig3"].rows:
            if row["kernel"] == "sumRows":
                assert row["warp-based"] < 1.5

    def test_block_overhead_on_64k_outer(self, results):
        rows = {(r["kernel"], r["shape"]): r for r in results["fig3"].rows}
        assert rows[("sumRows", "[64K,1K]")]["thread-block/thread"] > 1.5


class TestFig7:
    def test_dop_formulas_hold(self, results):
        for row in results["fig7"].rows:
            assert row["dop"] == row["expected_dop"], row


class TestFig12:
    def test_all_eight_apps_present(self, results):
        assert len(results["fig12"].rows) == 8

    def test_winners_match_paper(self, results):
        rows = {r["app"]: r for r in results["fig12"].rows}
        # we beat manual where the paper says so
        assert rows["gaussian"]["multidim"] < 1.0
        assert rows["bfs"]["multidim"] < 1.0
        # manual wins where the paper says so (fused stencils)
        assert rows["pathfinder"]["multidim"] > 1.5
        assert rows["lud"]["multidim"] > 1.5
        # comparable cases stay within ~25% (paper: 24% average gap)
        for app in ("hotspot", "mandelbrot", "srad", "nearestNeighbor"):
            assert rows[app]["multidim"] < 1.3

    def test_one_d_never_beats_multidim_badly(self, results):
        for row in results["fig12"].rows:
            assert row["1d"] >= row["multidim"] * 0.95

    def test_one_d_collapses_on_2d_apps(self, results):
        rows = {r["app"]: r for r in results["fig12"].rows}
        for app in ("hotspot", "mandelbrot", "srad", "lud"):
            assert rows[app]["1d"] > 3


class TestFig13:
    def test_column_major_hurts_fixed(self, results):
        for row in results["fig13"].rows:
            if row["order"] == "C":
                assert row["thread-block/thread"] > 1.5
                assert row["warp-based"] > 1.5

    def test_row_major_close_to_multidim(self, results):
        for row in results["fig13"].rows:
            if row["order"] == "R":
                assert row["thread-block/thread"] < 1.7
                assert row["warp-based"] < 1.7

    def test_slowdown_band_matches_paper(self, results):
        """Paper: (C) slowdowns fall between 1.5x and 9.6x."""
        worst = max(
            max(r["thread-block/thread"], r["warp-based"])
            for r in results["fig13"].rows
            if r["order"] == "C"
        )
        assert 3 < worst < 15


class TestFig14:
    def test_multidim_beats_cpu_everywhere(self, results):
        for row in results["fig14"].rows:
            if row["app"] in ("qpscd", "msmbuilder", "naiveBayes"):
                assert row["multidim"] < 1.0

    def test_qpscd_1d_worse_than_cpu(self, results):
        rows = {r["app"]: r for r in results["fig14"].rows}
        assert rows["qpscd"]["1d"] > 1.0

    def test_multidim_beats_1d(self, results):
        for row in results["fig14"].rows:
            if row["1d"] != "":
                assert row["multidim"] < row["1d"]

    def test_transfer_narrows_gap(self, results):
        rows = {r["app"]: r for r in results["fig14"].rows}
        assert (
            rows["naiveBayes+transfer"]["multidim"]
            > rows["naiveBayes"]["multidim"]
        )
        # but stays better than the CPU (Section VI-E: 15% better)
        assert rows["naiveBayes+transfer"]["multidim"] < 1.0


class TestFig16:
    def test_malloc_order_of_magnitude(self, results):
        rows = {r["kernel"]: r for r in results["fig16"].rows}
        assert 10 < rows["sumWeightedRows"]["malloc"] < 40
        assert 10 < rows["sumWeightedCols"]["malloc"] < 40

    def test_layout_matters_only_for_cols(self, results):
        rows = {r["kernel"]: r for r in results["fig16"].rows}
        assert rows["sumWeightedRows"]["prealloc_only"] < 1.2
        assert rows["sumWeightedCols"]["prealloc_only"] > 3


class TestFig17:
    def test_chosen_mapping_in_best_region(self, results):
        notes = results["fig17"].notes
        # the note records chosen-vs-best; parse the factor
        import re

        match = re.search(r"chosen mapping time ([0-9.]+)x", notes)
        assert match and float(match.group(1)) < 1.5

    def test_warp_based_in_slow_region(self, results):
        import re

        match = re.search(r"warp-based ([0-9.]+)x", results["fig17"].notes)
        assert match and float(match.group(1)) > 2.0

    def test_scores_normalized(self, results):
        scores = results["fig17"].column_values("score")
        assert all(0 <= s <= 1 for s in scores)

    def test_high_score_implies_good_performance(self, results):
        """Region A: top-scoring mappings perform near-best.  (The
        converse — false negatives, region C — is allowed.)"""
        rows = results["fig17"].rows
        top = [r for r in rows if r["score"] > 0.9]
        assert top, "expected some top-scored samples"
        assert all(r["time_norm"] < 3 for r in top)


class TestRunAll:
    def test_run_all_covers_registry(self):
        all_results = run_all()
        assert len(all_results) == len(EXPERIMENTS)


class TestRenderTable:
    def test_alignment_and_notes(self):
        text = render_table(
            "T", ["a", "b"], [{"a": 1, "b": 2.5}], notes="hello"
        )
        assert "T\n=" in text
        assert "hello" in text

    def test_float_formatting(self):
        text = render_table("T", ["x"], [{"x": 1234.5}])
        assert "1,234" in text or "1234" in text


class TestCsvExport:
    def test_to_csv_round_trips(self, results):
        import csv
        import io

        text = results["fig3"].to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(results["fig3"].rows)
        assert rows[0]["kernel"] == "sumCols"

    def test_cli_csv_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["figures", "fig7", "--csv-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "fig7.csv").exists()


class TestTables:
    def test_table1_all_patterns_ok(self, results):
        rows = results["table1"].rows
        assert {r["pattern"] for r in rows} == {
            "map", "zipWith", "foreach", "filter", "reduce", "groupBy"
        }
        assert all(r["cuda"] == "ok" for r in rows)

    def test_table2_covers_taxonomy(self, results):
        rows = results["table2"].rows
        cells = {(r["weight"], r["scope"]) for r in rows}
        assert cells == {
            ("Hard", "Local"), ("Hard", "Global"),
            ("Soft", "Local"), ("Soft", "Global"),
        }


class TestPassOrder:
    def test_finds_cost_sensitive_nest(self, results):
        """Acceptance bar: at least one nest where a non-default
        ordering/subset changes the modeled cost."""
        rows = results["passorder"].rows
        assert any(
            row["improvement_pct"] > 0 or row["worst_delta_us"] != 0
            for row in rows
        )

    def test_control_dop_costs_more_on_tiny_nest(self, results):
        """The launch mapping splits the tiny nest's map level, which needs
        no combiner; an in-pipeline control_dop also splits the reduce
        level and pays for one, so it is the worst ordering."""
        from repro.apps import ALL_APPS
        from repro.optim.passes.tune import autotune_pass_order
        from repro.runtime.session import GpuSession

        by_case = {
            (row["app"], row["sizes"]): row
            for row in results["passorder"].rows
        }
        tiny = by_case[("sumRows", "R=8 C=8")]
        assert tiny["improvement_pct"] == 0
        assert tiny["worst_delta_us"] > 0
        compiled = GpuSession().compile(ALL_APPS["sumRows"].build(), R=8, C=8)
        decision = compiled.decisions[0]
        tuned = autotune_pass_order(
            decision.analysis, decision.mapping, compiled.device
        )
        worst = max(tuned.frontier, key=lambda entry: entry.time_us)
        assert "control_dop" in worst.passes
        assert round(
            worst.time_us - tuned.default.time_us, 3
        ) == tiny["worst_delta_us"]

    def test_ordering_dependency_is_expensive(self, results):
        """prealloc without layout forfeits the Fig 16 column win."""
        by_app = {row["app"]: row for row in results["passorder"].rows}
        assert by_app["sumWeightedCols"]["worst_delta_us"] > 0
        assert by_app["sumWeightedCols"]["best_order"] == (
            "prealloc -> layout"
        )
