"""Tests for CUDA kernel generation, including the Figure 9 golden test."""

import re

import pytest

from repro.analysis.mapping import Dim, LevelMapping, Mapping, Span, SpanAll, Split, seq_level
from repro.codegen.kernels import KernelGenerator
from repro.analysis.analyzer import analyze_program
from repro.optim.pipeline import OptimizationFlags
from repro.runtime.session import GpuSession


def generate(program, mapping, **sizes):
    pa = analyze_program(program, **sizes)
    gen = KernelGenerator(pa.kernel(0), mapping, program, "k")
    return gen.generate()


class TestFigure9Golden:
    """The generated sumRows kernel must match Figure 9's structure."""

    MAPPING = Mapping(
        (
            LevelMapping(Dim.Y, 64, Span(1)),
            LevelMapping(Dim.X, 16, SpanAll()),
        )
    )

    def test_structure(self, sum_rows_program):
        k = generate(sum_rows_program, self.MAPPING, R=4096, C=4096)
        src = k.source
        # outer index from block/thread y
        assert "blockIdx.y * blockDim.y + threadIdx.y" in src
        # strided inner loop over columns
        assert "+= blockDim.x" in src
        # local accumulation, then shared-memory tree
        assert "__shared__" in src
        assert "__syncthreads();" in src
        assert "blockDim.x / 2" in src
        # thread 0 of x writes the row result
        assert "threadIdx.x == 0" in src
        assert "out[" in src

    def test_mapping_comment(self, sum_rows_program):
        k = generate(sum_rows_program, self.MAPPING, R=4096, C=4096)
        assert "Level 0: [dimy, 64, span(1)]" in k.source
        assert "Level 1: [dimx, 16, span(all)]" in k.source

    def test_launch_config(self, sum_rows_program):
        k = generate(sum_rows_program, self.MAPPING, R=4096, C=4096)
        cfg = k.launch_config([4096, 4096])
        assert cfg.block == (16, 64, 1)
        assert cfg.grid == (1, 64, 1)  # 4096/64 blocks along y, 1 along x

    def test_row_major_access(self, sum_rows_program):
        k = generate(sum_rows_program, self.MAPPING, R=4096, C=4096)
        assert "* (C) +" in k.source.replace("  ", " ")


class TestTemplateSelection:
    """Different mappings produce different code structures, not just
    launch parameters (Section IV-E)."""

    def test_sequential_reduce_no_shared_memory(self, sum_rows_program):
        m = Mapping((LevelMapping(Dim.X, 256, Span(1)), seq_level()))
        k = generate(sum_rows_program, m, R=4096, C=4096)
        assert "__shared__" not in k.source
        assert "for (long long" in k.source

    def test_split_emits_combiner(self, sum_rows_program):
        m = Mapping(
            (
                LevelMapping(Dim.Y, 1, Span(1)),
                LevelMapping(Dim.X, 256, Split(4)),
            )
        )
        k = generate(sum_rows_program, m, R=64, C=10**6)
        assert "partials" in k.source
        assert k.combiner_source
        assert "_combine(" in k.combiner_source

    def test_split_partials_one_slot_per_output_element(self):
        """A split reduce under a 2-D output writes output element i's
        partial of block b to slot i * k + b, which the combiner reads."""
        from repro.apps import ALL_APPS

        P, K, k = 4, 3, 2
        m = Mapping(
            (
                LevelMapping(Dim.Y, 16, Span(1)),
                LevelMapping(Dim.Z, 1, Span(1)),
                LevelMapping(Dim.X, 64, Split(k)),
            )
        )
        src = generate(
            ALL_APPS["msmbuilder"].build(), m, P=P, K=K, D=128
        ).source
        # The output indices are the threads' y and z coordinates.
        p_name = re.search(r"long long (\w+) = blockIdx\.y", src).group(1)
        k_name = re.search(r"long long (\w+) = blockIdx\.z", src).group(1)
        (line,) = [ln for ln in src.splitlines() if "partials[" in ln]
        index = line.split("partials[", 1)[1].split("] =", 1)[0]
        index = index.replace("blockIdx.x", "b")
        slots = []
        for p0 in range(P):
            for k0 in range(K):
                for b in range(k):
                    env = {p_name: p0, k_name: k0, "b": b}
                    slot = eval(index, {}, env)
                    assert slot == (p0 * K + k0) * k + b, (index, env)
                    slots.append(slot)
        assert len(set(slots)) == P * K * k == 24

    def test_span_n_emits_span_loop(self, sum_rows_program):
        m = Mapping(
            (
                LevelMapping(Dim.Y, 1, Span(4)),
                LevelMapping(Dim.X, 256, SpanAll()),
            )
        )
        k = generate(sum_rows_program, m, R=4096, C=4096)
        assert "for (int s_" in k.source

    def test_guarded_outer_write(self):
        """Outer-level stores are guarded when inner dims are parallel."""
        from repro.ir import Builder, F64
        from repro.ir.builder import range_foreach, store, store2
        from repro.ir.expr import ExprStmt

        b = Builder("guard")
        n = b.size("N")
        marks = b.vector("marks", F64, length="N")
        out = b.matrix("outm", F64, rows="N", cols="N")
        body = range_foreach(
            n,
            lambda i: [
                store(marks, i, 1.0),  # outer-level store
                ExprStmt(
                    range_foreach(
                        n,
                        lambda j: [store2(out, i, j, 2.0)],
                        index_name="j",
                    )
                ),
            ],
            index_name="i",
        )
        prog = b.build(body)
        m = Mapping(
            (
                LevelMapping(Dim.Y, 4, Span(1)),
                LevelMapping(Dim.X, 64, Span(1)),
            )
        )
        k = generate(prog, m, N=512)
        # the marks store is guarded on the inner (x) dimension
        assert "if (threadIdx.x == 0) marks[" in k.source
        # the inner store is not guarded
        assert "if (threadIdx.x == 0) outm[" not in k.source

    def test_prealloc_buffer_parameter(self, sum_weighted_cols_program):
        mod = GpuSession(flags=OptimizationFlags(prealloc=True)).compile(
            sum_weighted_cols_program, R=256, C=256,
        ).module
        src = mod.kernels[0].source
        assert "_buf" in src
        assert "malloc" not in src

    def test_malloc_path(self, sum_weighted_cols_program):
        mod = GpuSession(flags=OptimizationFlags(prealloc=False)).compile(
            sum_weighted_cols_program, R=256, C=256,
        ).module
        assert "malloc(sizeof(double)" in mod.kernels[0].source

    def test_filter_uses_atomic_compaction(self):
        from repro.ir import Builder, F64

        b = Builder("f")
        xs = b.vector("xs", F64, length="N")
        prog = b.build(xs.filter(lambda e: e > 0))
        mod = GpuSession().compile(prog, N=10000).module
        src = mod.kernels[0].source
        assert "atomicAdd(out_count, 1)" in src

    def test_groupby_uses_bucket_scatter(self):
        from repro.ir import Builder, F64, I64

        b = Builder("g")
        xs = b.vector("xs", F64, length="N")
        prog = b.build(xs.group_by(lambda e: e.cast(I64)))
        mod = GpuSession().compile(prog, N=10000).module
        src = mod.kernels[0].source
        assert "atomicAdd(&group_counts" in src


class TestEmbeddedPatterns:
    def test_pagerank_hoists_reduce_value(self):
        from repro.apps.pagerank import build_pagerank

        mod = GpuSession().compile(build_pagerank(), N=4096, E=65536).module
        src = mod.kernels[0].source
        # the reduce result lands in a hoisted local used by the final
        # expression
        assert "pv" in src
        assert "0.85" in src

    def test_device_function_preamble(self):
        from repro.apps.mandelbrot import build_mandelbrot

        mod = GpuSession().compile(build_mandelbrot(), H=64, W=64).module
        assert "__device__ double mandel" in mod.source
        assert "mandel(" in mod.kernels[0].source


class TestModule:
    def test_one_kernel_per_outer_pattern(self):
        from repro.apps.naive_bayes import build_naive_bayes

        mod = GpuSession().compile(
            build_naive_bayes(), DOCS=256, WORDS=256
        ).module
        assert len(mod.kernels) == 2
        assert mod.kernels[0].name != mod.kernels[1].name
        # two main kernels, plus combiner kernels if ControlDOP split one
        assert mod.source.count("__global__") >= 2

    def test_struct_params_flattened(self):
        from repro.apps.pagerank import build_pagerank

        mod = GpuSession().compile(build_pagerank(), N=4096, E=65536).module
        sig_names = [name for _, name in mod.kernels[0].params]
        assert "graph_offsets" in sig_names
        assert "graph_nbrs" in sig_names

    def test_fixed_strategy_codegen(self, sum_rows_program):
        mod = GpuSession(strategy="warp-based").compile(
            sum_rows_program, R=512, C=512
        ).module
        assert "__global__" in mod.source
