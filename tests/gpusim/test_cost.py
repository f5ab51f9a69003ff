"""Tests for the kernel cost model: the paper's qualitative effects must
be explicit, monotone consequences of the model."""

import pytest

from repro.analysis.analyzer import analyze_program
from repro.analysis.mapping import Dim, LevelMapping, Mapping, Span, SpanAll
from repro.analysis.strategies import one_d, thread_block_thread, warp_based
from repro.gpusim.cost import LaunchPlan, count_ops, estimate_kernel_cost
from repro.gpusim.device import TESLA_K20C
from repro.gpusim.simulator import decide_mapping
from repro.errors import SimulationError


def kernel(program, **sizes):
    pa = analyze_program(program, **sizes)
    return pa.kernel(0), pa.env


def cost_of(ka, env, mapping, plan=None):
    return estimate_kernel_cost(
        ka, mapping, TESLA_K20C, env, plan or LaunchPlan(prealloc=True)
    )


class TestCoalescingEffect:
    def test_coalesced_beats_strided(self, sum_rows_program):
        """The central claim: dimension assignment changes time."""
        ka, env = kernel(sum_rows_program, R=8192, C=8192)
        good = Mapping(
            (
                LevelMapping(Dim.Y, 4, Span(1)),
                LevelMapping(Dim.X, 256, SpanAll()),
            )
        )
        bad = Mapping(
            (
                LevelMapping(Dim.X, 256, Span(1)),
                LevelMapping(Dim.Y, 4, SpanAll()),
            )
        )
        assert cost_of(ka, env, good).total_us < cost_of(ka, env, bad).total_us

    def test_traffic_reflects_transactions(self, sum_rows_program):
        ka, env = kernel(sum_rows_program, R=8192, C=8192)
        good = Mapping(
            (
                LevelMapping(Dim.Y, 4, Span(1)),
                LevelMapping(Dim.X, 256, SpanAll()),
            )
        )
        bad = Mapping(
            (
                LevelMapping(Dim.X, 256, Span(1)),
                LevelMapping(Dim.Y, 4, SpanAll()),
            )
        )
        assert (
            cost_of(ka, env, good).traffic_bytes
            < cost_of(ka, env, bad).traffic_bytes
        )


class TestUnderutilization:
    def test_narrow_launch_is_slow(self, sum_cols_program):
        """1D on a 1K-wide outer level cannot hide latency."""
        ka, env = kernel(sum_cols_program, R=65536, C=1024)
        narrow = one_d(ka.level_sizes())
        wide = decide_mapping(ka, "multidim", TESLA_K20C).mapping
        narrow_cost = cost_of(ka, env, narrow)
        wide_cost = cost_of(ka, env, wide)
        assert narrow_cost.total_us > 5 * wide_cost.total_us
        assert narrow_cost.occupancy.occupancy < 0.1


class TestBlockOverhead:
    def test_many_blocks_cost_more(self, sum_rows_program):
        """Fig 3: thread-block/thread pays for 64K blocks."""
        ka, env = kernel(sum_rows_program, R=65536, C=1024)
        tbt = thread_block_thread(ka.level_sizes())
        c = cost_of(ka, env, tbt)
        assert c.occupancy.total_blocks == 65536
        assert c.block_sched_us > 100


class TestMalloc:
    def test_malloc_dominates_without_prealloc(
        self, sum_weighted_cols_program
    ):
        from repro.optim import OptimizationFlags, build_plan

        ka, env = kernel(sum_weighted_cols_program, R=8192, C=8192)
        mapping = decide_mapping(ka, "multidim", TESLA_K20C).mapping
        with_malloc = cost_of(ka, env, mapping, LaunchPlan(prealloc=False))
        optimized = build_plan(ka, mapping, TESLA_K20C,
                               OptimizationFlags(True, True, True))
        without = cost_of(ka, env, mapping, optimized)
        assert with_malloc.malloc_us > 0
        assert without.malloc_us == 0
        assert with_malloc.total_us > 5 * without.total_us

    def test_malloc_cost_scales_with_alloc_count(
        self, sum_weighted_cols_program
    ):
        ka_small, env_small = kernel(sum_weighted_cols_program, R=64, C=512)
        ka_big, env_big = kernel(sum_weighted_cols_program, R=64, C=4096)
        m_small = decide_mapping(ka_small, "multidim", TESLA_K20C).mapping
        c_small = cost_of(ka_small, env_small, m_small, LaunchPlan())
        c_big = cost_of(ka_big, env_big, m_small, LaunchPlan())
        assert c_big.malloc_us == pytest.approx(8 * c_small.malloc_us)


class TestLayoutEffect:
    def test_layout_strides_change_time(self, sum_weighted_cols_program):
        """Figure 11/16: the preallocated temp's physical layout matters."""
        from repro.optim import OptimizationFlags, build_plan

        ka, env = kernel(sum_weighted_cols_program, R=8192, C=8192)
        mapping = decide_mapping(ka, "multidim", TESLA_K20C).mapping
        opt = build_plan(ka, mapping, TESLA_K20C,
                         OptimizationFlags(True, True, False))
        fixed = build_plan(ka, mapping, TESLA_K20C,
                           OptimizationFlags(True, False, False))
        assert (
            cost_of(ka, env, mapping, opt).total_us
            < cost_of(ka, env, mapping, fixed).total_us
        )


class TestCombiner:
    def test_split_adds_combiner_cost(self, sum_rows_program):
        from repro.analysis.mapping import Split

        ka, env = kernel(sum_rows_program, R=64, C=10**6)
        split = Mapping(
            (
                LevelMapping(Dim.Y, 1, Span(1)),
                LevelMapping(Dim.X, 256, Split(4)),
            )
        )
        c = cost_of(ka, env, split)
        assert c.combiner_us > 0

    def test_span_all_no_combiner(self, sum_rows_program):
        ka, env = kernel(sum_rows_program, R=64, C=10**6)
        m = Mapping(
            (
                LevelMapping(Dim.Y, 1, Span(1)),
                LevelMapping(Dim.X, 256, SpanAll()),
            )
        )
        assert cost_of(ka, env, m).combiner_us == 0

    def test_split_map_level_no_combiner(self, sum_rows_program):
        """A Split on a Map level chunks the domain; no partials, so no
        combiner kernel is emitted and none is priced."""
        from repro.analysis.mapping import Split

        ka, env = kernel(sum_rows_program, R=8, C=8)
        m = Mapping(
            (
                LevelMapping(Dim.Y, 8, Split(2)),
                LevelMapping(Dim.X, 8, SpanAll()),
            )
        )
        assert cost_of(ka, env, m).combiner_us == 0

    def test_combiner_priced_with_the_reduce_level_k(self, sum_rows_program):
        from repro.analysis.mapping import Split

        ka, env = kernel(sum_rows_program, R=64, C=64)
        reduce_split = cost_of(ka, env, Mapping(
            (
                LevelMapping(Dim.Y, 8, Span(1)),
                LevelMapping(Dim.X, 8, Split(2)),
            )
        ))
        both_split = cost_of(ka, env, Mapping(
            (
                LevelMapping(Dim.Y, 8, Split(2)),
                LevelMapping(Dim.X, 8, Split(2)),
            )
        ))
        assert both_split.combiner_us == reduce_split.combiner_us > 0


class TestSharedMemoryPrefetch:
    def test_prefetch_reduces_outer_traffic(self):
        from repro.apps.qpscd import build_qpscd

        prog = build_qpscd()
        ka, env = kernel(prog, S=65536, N=65536, C=1024)
        mapping = decide_mapping(ka, "multidim", TESLA_K20C).mapping
        base = cost_of(ka, env, mapping, LaunchPlan(prealloc=True))
        pre = cost_of(
            ka,
            env,
            mapping,
            LaunchPlan(prealloc=True, smem_prefetch=frozenset({"y"})),
        )
        assert pre.traffic_bytes <= base.traffic_bytes


class TestOps:
    def test_count_ops_scales_with_sizes(self, sum_rows_program):
        from repro.analysis.shapes import SizeEnv

        small = count_ops(sum_rows_program.result,
                          SizeEnv(values={"R": 10, "C": 10}))
        big = count_ops(sum_rows_program.result,
                        SizeEnv(values={"R": 10, "C": 100}))
        assert big == pytest.approx(10 * small, rel=0.2)

    def test_fn_call_flops_counted(self):
        from repro.apps.mandelbrot import build_mandelbrot
        from repro.analysis.shapes import SizeEnv

        prog = build_mandelbrot()
        ops = count_ops(prog.result, SizeEnv(values={"H": 2, "W": 2}))
        assert ops >= 4 * 8 * 32  # 4 pixels x registered flops


class TestValidation:
    def test_level_mismatch_raises(self, sum_rows_program):
        ka, env = kernel(sum_rows_program, R=64, C=64)
        flat = Mapping((LevelMapping(Dim.X, 256, Span(1)),))
        with pytest.raises(SimulationError):
            cost_of(ka, env, flat)


class TestSkewModel:
    def test_skew_penalizes_sequential_dynamic_loops(self):
        from repro.apps.bfs import build_bfs_step
        from repro.analysis.shapes import SizeEnv

        prog = build_bfs_step()
        pa = analyze_program(prog, N=65536, E=65536 * 12)
        ka = pa.kernel(0)
        oned = one_d(ka.level_sizes())
        balanced_env = pa.env.bind()
        balanced_env.skew = 1.0
        skewed = cost_of(ka, pa.env, oned)
        balanced = cost_of(ka, balanced_env, oned)
        assert skewed.total_us > balanced.total_us
