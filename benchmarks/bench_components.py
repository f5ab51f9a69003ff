"""Component micro-benchmarks: compiler-stage throughput.

The paper notes the brute-force search takes "less than a few seconds" for
1-3 level nests; these benchmarks keep the reproduction honest about its
own compile-time costs.
"""

import numpy as np

from repro.analysis import analyze_program
from repro.gpusim import TESLA_K20C, estimate_kernel_cost
from repro.interp import run_program


def test_bench_search_two_levels(benchmark):
    """Algorithm-1 search over a two-level nest (sub-second per paper)."""
    from _progs import make_sum_rows

    program = make_sum_rows()
    pa = analyze_program(program, R=8192, C=8192)
    ka = pa.kernel(0)

    result = benchmark(ka.select_mapping)
    assert result.score > 0


def test_bench_search_three_levels(benchmark):
    """Search over a three-level nest (larger candidate space)."""
    from repro.apps.msmbuilder import build_msmbuilder

    pa = analyze_program(build_msmbuilder(), P=2048, K=100, D=100)
    ka = pa.kernel(0)

    result = benchmark(ka.select_mapping)
    assert len(result.mapping.parallel_levels()) == 3


def test_bench_program_analysis(benchmark):
    """Full per-kernel analysis (nest + accesses + constraints)."""
    from repro.apps.pagerank import build_pagerank

    program = build_pagerank()
    pa = benchmark(analyze_program, program, N=65536, E=65536 * 16)
    assert len(pa) == 1


def test_bench_cost_model(benchmark):
    """One cost-model evaluation (used thousands of times in Fig 17)."""
    from _progs import make_sum_rows

    program = make_sum_rows()
    pa = analyze_program(program, R=8192, C=8192)
    ka = pa.kernel(0)
    mapping = ka.select_mapping().mapping

    cost = benchmark(
        estimate_kernel_cost, ka, mapping, TESLA_K20C, pa.env
    )
    assert cost.total_us > 0


def test_bench_codegen(benchmark):
    """CUDA generation for a two-kernel program (codegen alone: analysis,
    mappings and launch plans come from one session compile)."""
    from repro.apps.gaussian import build_gaussian
    from repro.codegen import compile_program
    from repro.runtime.session import GpuSession

    compiled = GpuSession().compile(build_gaussian("R"), N=2048, T=0)
    module = benchmark(
        compile_program,
        compiled.analysis,
        compiled.mappings(),
        [d.plan for d in compiled.decisions],
    )
    assert len(module.kernels) == 2
    assert module.source == compiled.module.source


def test_bench_interpreter_vectorized(benchmark):
    """Functional executor throughput on a vectorizable nest."""
    from _progs import make_sum_rows

    program = make_sum_rows()
    data = np.random.default_rng(0).random((256, 4096))

    out = benchmark(run_program, program, m=data, R=256, C=4096)
    assert np.allclose(out, data.sum(axis=1))
