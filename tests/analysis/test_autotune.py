"""Tests for the cost-model-driven auto-tuner (the paper's future-work
extension)."""

import pytest

from repro.analysis import analyze_program, autotune_mapping
from repro.analysis.scoring import hard_feasible
from repro.gpusim import TESLA_K20C, decide_mapping, estimate_kernel_cost

SMALL_BLOCKS = (8, 32, 64, 128)  # keep the tuned space small for tests


class TestAutotune:
    def test_result_is_feasible(self, sum_rows_program):
        pa = analyze_program(sum_rows_program, R=4096, C=4096)
        ka = pa.kernel(0)
        result = autotune_mapping(
            ka, TESLA_K20C, block_sizes=SMALL_BLOCKS
        )
        assert hard_feasible(
            result.mapping, ka.constraints, ka.level_sizes()
        )
        assert result.candidates > 10

    def test_autotuned_no_worse_than_score_selected(self, sum_rows_program):
        """The tuner optimizes the very objective it is judged on, so it
        must be at least as good as the constraint-score choice."""
        pa = analyze_program(sum_rows_program, R=4096, C=4096)
        ka = pa.kernel(0)
        tuned = autotune_mapping(ka, TESLA_K20C, block_sizes=SMALL_BLOCKS)
        scored = decide_mapping(ka, "multidim", TESLA_K20C)
        scored_time = estimate_kernel_cost(
            ka, scored.mapping, TESLA_K20C, pa.env
        ).total_us
        assert tuned.time_us <= scored_time * 1.001

    def test_frontier_sorted(self, sum_cols_program):
        pa = analyze_program(sum_cols_program, R=4096, C=4096)
        ka = pa.kernel(0)
        result = autotune_mapping(
            ka, TESLA_K20C, block_sizes=SMALL_BLOCKS, keep_top=5
        )
        times = [t for _, t in result.frontier]
        assert times == sorted(times)
        assert len(times) <= 5
        assert times[0] == result.time_us

    def test_score_choice_close_to_tuned(self, sum_rows_program):
        """Figure 17's region-A claim, quantified: the cheap constraint
        score lands within a small factor of the simulator optimum."""
        pa = analyze_program(sum_rows_program, R=4096, C=4096)
        ka = pa.kernel(0)
        tuned = autotune_mapping(ka, TESLA_K20C, block_sizes=SMALL_BLOCKS)
        scored = decide_mapping(ka, "multidim", TESLA_K20C)
        scored_time = estimate_kernel_cost(
            ka, scored.mapping, TESLA_K20C, pa.env
        ).total_us
        assert scored_time <= tuned.time_us * 2.0
