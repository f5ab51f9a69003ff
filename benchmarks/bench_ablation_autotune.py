"""Ablation: constraint-score selection vs cost-model auto-tuning.

The paper's future-work direction: its fixed intrinsic weights cause
Figure 17's false negatives; an analytical performance model could close
the gap.  This ablation quantifies what the cheap score leaves on the
table by auto-tuning every kernel against the full simulator and comparing
to the Algorithm-1 choice.
"""

import pytest

from repro.analysis import analyze_program, autotune_mapping
from repro.gpusim import TESLA_K20C, decide_mapping, estimate_kernel_cost

WORKLOADS = [
    ("sumRows", lambda: _sum_rows(), {"R": 8192, "C": 8192}),
    ("sumCols", lambda: _sum_cols(), {"R": 65536, "C": 1024}),
    ("mandelbrot-skew", lambda: _mandelbrot(), {"H": 50, "W": 20000}),
]


def _sum_rows():
    from _progs import make_sum_rows

    return make_sum_rows()


def _sum_cols():
    from repro.apps.sums import build_sum_cols

    return build_sum_cols()


def _mandelbrot():
    from repro.apps.mandelbrot import build_mandelbrot

    return build_mandelbrot()


@pytest.mark.parametrize("name,builder,params", WORKLOADS)
def test_score_vs_autotune(benchmark, name, builder, params):
    program = builder()
    pa = analyze_program(program, **params)
    ka = pa.kernel(0)

    tuned = benchmark.pedantic(
        autotune_mapping,
        args=(ka, TESLA_K20C),
        kwargs={"block_sizes": (8, 32, 64, 128, 256, 1024)},
        rounds=2,
        iterations=1,
    )

    scored = decide_mapping(ka, "multidim", TESLA_K20C)
    scored_time = estimate_kernel_cost(
        ka, scored.mapping, TESLA_K20C, pa.env
    ).total_us

    gap = scored_time / tuned.time_us
    print(
        f"\n{name}: score-selected {scored.mapping} = {scored_time:.0f}us; "
        f"autotuned {tuned.mapping} = {tuned.time_us:.0f}us; "
        f"gap {gap:.2f}x over {tuned.candidates} candidates"
    )
    # The tuner can't lose (it optimizes the judged objective)...
    assert tuned.time_us <= scored_time * 1.001
    # ...and the cheap score must stay competitive (the paper's region-A
    # claim): within 2x of the model optimum.
    assert gap < 2.0
