"""Tie-break benchmark: the search's pick against its tie group.

Algorithm 1's score cannot separate candidates that tie on score and
DOP; the search picks rank 1 of its total order
(:func:`repro.analysis.search.ranking_key`).  For every kernel of three
program sets this prices each member of the pick's (score, DOP) group
after ControlDOP, with the launch plan and cost model the stored
artifact uses, and compares the shipped kernel's cost with the cheapest
member's.  It also checks that ControlDOP applied to the search's rank-1
candidate gives the shipped mapping, so provenance's ``#1`` is the pick.

Sets:

* ``apps`` — the 18 paper apps at default, x1.37 and x0.71 sizes;
* ``corpus`` — the 20 difftest corpus programs at their declared sizes;
* ``generated`` — 100 ``ProgramGenerator(seed=7)`` programs.

Each row of ``BENCH_tie_break.json`` (repo root) gives the set's kernel
count, the max and geomean of pick / cheapest, how many kernels exceed
:data:`TIE_BREAK_SLACK`, and how many rank-1 candidates are not the
pick.  Run under pytest (``pytest benchmarks/bench_tie_break.py -s``)
or directly (``PYTHONPATH=src python benchmarks/bench_tie_break.py``).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Dict, List

from repro.analysis.dop import control_dop
from repro.apps import ALL_APPS
from repro.difftest import load_corpus
from repro.difftest.generator import ProgramGenerator, build_program
from repro.gpusim.cost import estimate_kernel_cost
from repro.optim.pipeline import build_plan
from repro.runtime.session import GpuSession

_ROOT = Path(__file__).resolve().parents[1]
_OUT = _ROOT / "BENCH_tie_break.json"
_CORPUS = _ROOT / "tests" / "integration" / "corpus" / "seed_corpus.json"

#: The pick may cost at most this much over the cheapest tied candidate
#: (the bound of tests/runtime/test_stored_cost.py).
TIE_BREAK_SLACK = 1.05


def _scaled(app, factor):
    """The app's default sizes with every extent above 16 scaled (the
    rule of tests/runtime/test_stored_cost.py)."""
    return {
        key: max(16, int(round(value * factor))) if value > 16 else value
        for key, value in app.default_params.items()
    }


def program_sets() -> Dict[str, List]:
    """``(label, program, sizes)`` per program, per set."""
    apps = []
    for factor in (1.0, 1.37, 0.71):
        for name in sorted(ALL_APPS):
            app = ALL_APPS[name]
            apps.append((f"{name}-x{factor}", app.build(), _scaled(app, factor)))
    corpus = [
        (f"corpus-{index}", build_program(spec), {})
        for index, spec in enumerate(load_corpus(str(_CORPUS)))
    ]
    generator = ProgramGenerator(seed=7)
    generated = [
        (f"generated-{index}", build_program(generator.random_spec()), {})
        for index in range(100)
    ]
    return {"apps": apps, "corpus": corpus, "generated": generated}


def measure_kernels(program, sizes) -> List[Dict]:
    """Pick / cheapest and the rank-1 check for each kernel of a program."""
    compiled = GpuSession().compile(program, **sizes)
    device, env = compiled.device, compiled.analysis.env
    window = device.dop_window()
    kernels = []
    for decision in compiled.decisions:
        ka = decision.analysis
        level_sizes = tuple(ka.level_sizes())
        span_all = ka.constraints.span_all_levels()
        search = ka.select_mapping(window=window, keep_all=True)
        top = (search.ranked[0].score, search.ranked[0].dop)
        costs = []
        for candidate in search.all_scored:
            if (candidate.score, candidate.dop) != top:
                continue
            mapping = control_dop(
                candidate.mapping, level_sizes, window, span_all
            )
            plan = build_plan(ka, mapping, device, compiled.flags)
            costs.append(
                estimate_kernel_cost(ka, mapping, device, env, plan).total_us
            )
        rank_1 = control_dop(
            decision.search.ranked[0].mapping, level_sizes, window, span_all
        )
        kernels.append(dict(
            ratio=decision.cost(device, env).total_us / min(costs),
            tied=len(costs),
            rank_1_is_pick=rank_1 == decision.mapping,
        ))
    return kernels


def run_sets() -> List[Dict]:
    rows = []
    for name, programs in program_sets().items():
        start = time.perf_counter()
        kernels = [
            kernel
            for _, program, sizes in programs
            for kernel in measure_kernels(program, sizes)
        ]
        ratios = [k["ratio"] for k in kernels]
        rows.append(dict(
            bench="tie_break",
            set=name,
            programs=len(programs),
            kernels=len(kernels),
            max_tied=max(k["tied"] for k in kernels),
            pick_over_cheapest_max=round(max(ratios), 4),
            pick_over_cheapest_geomean=round(
                math.exp(sum(math.log(r) for r in ratios) / len(ratios)), 4
            ),
            over_slack=sum(r > TIE_BREAK_SLACK for r in ratios),
            rank_1_mismatches=sum(not k["rank_1_is_pick"] for k in kernels),
            wall_s=round(time.perf_counter() - start, 2),
        ))
    return rows


def test_bench_tie_break():
    rows = run_sets()
    _OUT.write_text(json.dumps(dict(rows=rows), indent=2) + "\n")
    print()
    for row in rows:
        print(
            f"{row['set']:<10} {row['kernels']:>4} kernels"
            f"  pick/cheapest max {row['pick_over_cheapest_max']:.3f}"
            f" geomean {row['pick_over_cheapest_geomean']:.4f}"
            f"  over {TIE_BREAK_SLACK}: {row['over_slack']}"
            f"  rank-1 mismatches: {row['rank_1_mismatches']}"
            f"  ({row['wall_s']:.1f} s)"
        )
    for row in rows:
        assert row["pick_over_cheapest_max"] <= TIE_BREAK_SLACK, row
        assert row["rank_1_mismatches"] == 0, row


if __name__ == "__main__":
    test_bench_tie_break()
    print(f"wrote {_OUT}")
