"""The full fault matrix through the pipeline: every cell must be green.

This is the acceptance gate the ISSUE names: for every valid
(stage, kind) pair the pipeline either degrades with a bit-identical
result or raises a typed error with a replayable report — never a bare
traceback, never a silently wrong result.
"""

from repro.analysis.cache import clear_caches
from repro.resilience.chaos import GOOD_OUTCOMES, run_chaos_matrix
from repro.resilience.faults import FAULT_MATRIX


class TestChaosMatrix:
    def test_full_matrix_is_green(self, sum_rows_program):
        clear_caches()
        result = run_chaos_matrix(
            sum_rows_program, sizes={"R": 12, "C": 8}
        )
        assert len(result.cells) == len(FAULT_MATRIX)
        bad = [c.describe() for c in result.cells if not c.ok]
        assert result.ok, "chaos violations:\n" + "\n".join(bad)

    def test_matrix_exercises_both_resilience_modes(self, sum_rows_program):
        clear_caches()
        result = run_chaos_matrix(
            sum_rows_program, sizes={"R": 12, "C": 8}
        )
        outcomes = {c.outcome for c in result.cells}
        # Some stages degrade (search, optimizer), some escape as
        # typed reported errors (analysis, codegen, interpreter, ...).
        assert "degraded" in outcomes
        assert "typed-error" in outcomes
        assert outcomes <= set(GOOD_OUTCOMES)

    def test_typed_errors_carry_reports_and_artifacts(
        self, tmp_path, sum_rows_program
    ):
        clear_caches()
        result = run_chaos_matrix(
            sum_rows_program,
            pairs=[("analysis", "exception"), ("codegen", "exception")],
            sizes={"R": 12, "C": 8},
            out_dir=str(tmp_path),
        )
        assert result.ok
        for cell in result.cells:
            assert cell.outcome == "typed-error"
            assert cell.report is not None
            assert cell.artifact_path is not None

    def test_fault_firing_is_recorded(self, sum_rows_program):
        clear_caches()
        result = run_chaos_matrix(
            sum_rows_program,
            pairs=[("search", "exception")],
            sizes={"R": 12, "C": 8},
        )
        (cell,) = result.cells
        assert cell.fired
        assert cell.outcome == "degraded"
