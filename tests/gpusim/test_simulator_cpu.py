"""Tests for the simulator facade and the CPU reference model."""

import pytest

from repro.analysis.analyzer import analyze_program
from repro.analysis.mapping import Dim, LevelMapping, Mapping, Span, SpanAll
from repro.gpusim.cost import LaunchPlan
from repro.gpusim.cpu import XEON_X5550_DUAL, estimate_cpu_time_us
from repro.gpusim.device import TESLA_K20C
from repro.gpusim.simulator import decide_mapping, simulate_program
from repro.runtime.session import GpuSession


class TestSimulateProgram:
    def test_strategy_names_resolve(self, sum_rows_program):
        for strategy in ("multidim", "1d", "thread-block/thread",
                         "warp-based"):
            cost = simulate_program(sum_rows_program, strategy,
                                    R=1024, C=1024)
            assert cost.total_us > 0

    def test_explicit_mapping(self, sum_rows_program):
        m = Mapping(
            (
                LevelMapping(Dim.Y, 2, Span(1)),
                LevelMapping(Dim.X, 128, SpanAll()),
            )
        )
        cost = simulate_program(sum_rows_program, m, R=1024, C=1024)
        assert cost.total_us > 0

    def test_multi_kernel_sums(self):
        from repro.apps.naive_bayes import build_naive_bayes

        cost = simulate_program(
            build_naive_bayes(), "multidim", DOCS=512, WORDS=512
        )
        assert len(cost.kernels) == 2
        assert cost.total_us == pytest.approx(
            sum(k.total_us for k in cost.kernels)
        )

    def test_transfer_included_when_asked(self, sum_rows_program):
        base = simulate_program(sum_rows_program, "multidim",
                                R=1024, C=1024)
        with_xfer = simulate_program(
            sum_rows_program, "multidim", R=1024, C=1024,
            input_bytes=1024 * 1024 * 8.0, include_transfer=True,
        )
        assert with_xfer.transfer_us > 0
        assert with_xfer.total_us > base.total_us

    def test_multidim_beats_or_matches_fixed(self, sum_cols_program):
        """The paper's headline claim on the running example."""
        base = simulate_program(
            sum_cols_program, "multidim", R=65536, C=1024
        ).total_us
        for strategy in ("1d", "thread-block/thread", "warp-based"):
            other = simulate_program(
                sum_cols_program, strategy, R=65536, C=1024
            ).total_us
            assert other >= base * 0.9  # small model-noise allowance


class TestDecideMapping:
    def test_multidim_records_score(self, sum_rows_program):
        pa = analyze_program(sum_rows_program, R=256, C=256)
        d = decide_mapping(pa.kernel(0), "multidim", TESLA_K20C)
        assert d.score is not None and d.score > 0

    def test_optimize_builds_plan(self, sum_weighted_cols_program):
        """The session's optimizer stage builds the plan that ships."""
        compiled = GpuSession(resilient=False).compile(
            sum_weighted_cols_program, R=256, C=256
        )
        d = compiled.decisions[0]
        assert d.plan.prealloc
        assert len(d.plan.layout_strides) == 1
        assert d.recipe is not None

    def test_no_optimize_bare_plan(self, sum_weighted_cols_program):
        """Deciding a mapping builds no plan: the session replaces the
        bare one."""
        pa = analyze_program(sum_weighted_cols_program, R=256, C=256)
        d = decide_mapping(pa.kernel(0), "multidim", TESLA_K20C)
        assert d.plan == LaunchPlan(prealloc=True)
        assert d.recipe is None


class TestCpuModel:
    def test_peak_flops(self):
        assert XEON_X5550_DUAL.peak_flops == pytest.approx(
            8 * 2 * 2.67e9
        )

    def test_roofline_max(self, sum_rows_program):
        """Bandwidth-bound kernels are priced by bytes, not flops."""
        pa = analyze_program(sum_rows_program, R=4096, C=4096)
        t = estimate_cpu_time_us(pa.kernel(0), pa.env)
        bytes_touched = 4096 * 4096 * 8
        bw_floor_us = bytes_touched / (20.0 * 1e9) * 1e6
        assert t >= bw_floor_us * 0.99

    def test_efficiency_scales_compute(self):
        from repro.apps.msmbuilder import build_msmbuilder

        pa = analyze_program(build_msmbuilder(), P=64, K=64, D=64)
        fast = estimate_cpu_time_us(pa.kernel(0), pa.env, efficiency=1.0)
        slow = estimate_cpu_time_us(pa.kernel(0), pa.env, efficiency=0.1)
        assert slow > fast
