"""Ablation: shared-memory prefetching for imperfect nests (Section V-B).

The workload is an imperfect nest with *large* outer-level reads: per-row
scaling of a matrix by a combination of two million-element vectors::

    out[i][j] = m[i][j] * (u[i] + v[i])

The vector reads execute once per (i, j) thread (redundantly, as generated
code does) and their footprint exceeds L2, so staging them through shared
memory genuinely removes traffic — the effect the optimization exists for.
(On small outer data the L2 model already absorbs the redundancy, which is
why the paper pairs this optimization with the imperfect-nest detection
rather than applying it blindly.)
"""

import pytest

from repro.analysis import analyze_program
from repro.gpusim import TESLA_K20C, decide_mapping, estimate_kernel_cost
from repro.ir import Builder, F64
from repro.optim import OptimizationFlags, build_plan

PARAMS = {"R": 1 << 20, "C": 64}


def test_smem_prefetch_ablation(benchmark):
    from repro.ir.builder import let, range_map

    b = Builder("rowScale")
    r = b.size("R")
    m = b.matrix("m", F64, rows="R", cols="C")
    u = b.vector("u", F64, length="R")
    v = b.vector("v", F64, length="R")
    program = b.build(
        range_map(
            r,
            lambda i: let(
                u[i] + v[i],
                lambda scale: m.row(i).map(lambda e: e * scale),
                name="scale",
            ),
            index_name="i",
        )
    )

    pa = analyze_program(program, **PARAMS)
    ka = pa.kernel(0)
    decision = decide_mapping(ka, "multidim", TESLA_K20C)
    mapping = decision.mapping

    with_smem = build_plan(
        ka, mapping, TESLA_K20C, OptimizationFlags(True, True, True)
    )
    without = build_plan(
        ka, mapping, TESLA_K20C, OptimizationFlags(True, True, False)
    )
    assert with_smem.smem_prefetch  # u and/or v selected for staging

    cost_on = benchmark.pedantic(
        estimate_kernel_cost,
        args=(ka, mapping, TESLA_K20C, pa.env, with_smem),
        rounds=3,
        iterations=1,
    )
    cost_off = estimate_kernel_cost(ka, mapping, TESLA_K20C, pa.env, without)

    print(
        f"\nrowScale smem prefetch: on {cost_on.total_us:.0f}us "
        f"({cost_on.traffic_bytes / 1e6:.0f} MB), "
        f"off {cost_off.total_us:.0f}us "
        f"({cost_off.traffic_bytes / 1e6:.0f} MB)"
    )
    # staging removes the redundant outer-level vector traffic
    assert cost_on.traffic_bytes < cost_off.traffic_bytes * 0.95
    assert cost_on.total_us < cost_off.total_us
