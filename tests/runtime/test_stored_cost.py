"""The stored cost prices the plan the artifact ships.

At the sizes a program was compiled at, ``CompiledProgram.estimate_cost``
prices each kernel's own mapping and launch plan.  The figure harness
(``simulate_program``) is a fresh session compile priced the same way,
so both agree for the same program and sizes.  Launch adjustment runs
only at other sizes.

Because the stored cost is the search's pick, the tie-break among
candidates the score cannot separate matters: the pick must be close to
the cheapest candidate of its (score, DOP) tie group.
"""

import os

import pytest

from repro.analysis.dop import control_dop
from repro.apps import ALL_APPS
from repro.difftest import load_corpus
from repro.difftest.generator import build_program
from repro.gpusim.cost import estimate_kernel_cost
from repro.gpusim.simulator import simulate_program
from repro.optim.pipeline import build_plan
from repro.runtime.session import GpuSession

CORPUS_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "integration", "corpus",
    "seed_corpus.json",
)

#: The pick may cost at most this much over the cheapest tied candidate.
TIE_BREAK_SLACK = 1.05


def _scaled(app, factor):
    """The app's default sizes with every extent above 16 scaled."""
    return {
        key: max(16, int(round(value * factor))) if value > 16 else value
        for key, value in app.default_params.items()
    }


def _default_programs():
    """The 18 apps at default sizes, the 20 corpus programs at their
    declared sizes."""
    cases = [
        (name, ALL_APPS[name].build, ALL_APPS[name].default_params)
        for name in sorted(ALL_APPS)
    ]
    for index, spec in enumerate(load_corpus(CORPUS_PATH)):
        program = build_program(spec)
        cases.append(
            (f"corpus-{index}", lambda p=program: p, dict(program.size_hints))
        )
    return cases


_DEFAULT_CASES = _default_programs()

#: 56 programs: the 38 above, plus the 18 apps at x1.37 sizes.
_CASES = _DEFAULT_CASES + [
    (f"{name}-x1.37", ALL_APPS[name].build, _scaled(ALL_APPS[name], 1.37))
    for name in sorted(ALL_APPS)
]


@pytest.mark.parametrize(
    "build,sizes", [c[1:] for c in _CASES], ids=[c[0] for c in _CASES]
)
def test_stored_cost_equals_figure_harness(build, sizes):
    program = build()
    compiled = GpuSession().compile(program, **sizes)
    stored = compiled.estimate_cost().total_us
    assert stored == simulate_program(program, **sizes).total_us
    assert stored == compiled.estimate_time_us(**sizes)


def test_search_pick_within_slack_of_cheapest_tied_candidate():
    kernels = 0
    for name, build, sizes in _DEFAULT_CASES:
        compiled = GpuSession().compile(build(), **sizes)
        device, env = compiled.device, compiled.analysis.env
        window = device.dop_window()
        for index, decision in enumerate(compiled.decisions):
            ka = decision.analysis
            level_sizes = tuple(ka.level_sizes())
            scored = ka.select_mapping(window=window, keep_all=True).all_scored
            top = max((c.score, c.dop) for c in scored)
            costs = []
            for candidate in scored:
                if (candidate.score, candidate.dop) != top:
                    continue
                mapping = control_dop(
                    candidate.mapping, level_sizes, window,
                    ka.constraints.span_all_levels(),
                )
                plan = build_plan(ka, mapping, device, compiled.flags)
                costs.append(
                    estimate_kernel_cost(ka, mapping, device, env, plan)
                    .total_us
                )
            ratio = decision.cost(device, env).total_us / min(costs)
            assert ratio <= TIE_BREAK_SLACK, (name, index, ratio)
            kernels += 1
    assert kernels == 40
