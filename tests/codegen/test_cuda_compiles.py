"""The CUDA the service stores compiles, and it is the kernel its cost prices.

Three program sets: the 18 paper apps at default sizes, the 20 seed-corpus
programs, and 100 ``ProgramGenerator(seed=7)`` programs.

* **g++ syntax check.**  Each set's module sources, compiled under default
  flags, under ``OptimizationFlags.none()`` and (single-kernel programs)
  under the differential oracle's ``Split(k)``-forcing mapping, go through
  one ``g++ -std=c++17 -fsyntax-only`` call with one namespace per module.
  ``cuda_shim.h`` stands in for the CUDA keywords and built-ins.  With no
  g++ on the PATH the test fails; it does not skip.
* **One combiner rule.**  A combiner is priced iff one is emitted iff
  :meth:`KernelAnalysis.needs_combiner` says so.
* **One layout.**  Every preallocated buffer's emitted strides, evaluated at
  the compile's sizes, equal the plan's (row-major when the plan does not
  list the buffer).
* **One parameter list.**  Every host launch passes as many arguments as
  the kernel declares.
"""

import functools
import pathlib
import re
import shutil
import subprocess

import pytest

from repro.analysis.analyzer import analyze_program
from repro.apps import ALL_APPS
from repro.codegen.host import generate_host_driver
from repro.difftest import load_corpus
from repro.difftest.generator import ProgramGenerator, build_program
from repro.difftest.oracle import split_forcing_mapping
from repro.optim.layout import row_major
from repro.optim.pipeline import OptimizationFlags
from repro.runtime.session import GpuSession

HERE = pathlib.Path(__file__).parent
SHIM = HERE / "cuda_shim.h"
CORPUS = HERE.parent / "integration" / "corpus" / "seed_corpus.json"

FLAGS = {
    "default": OptimizationFlags.default(),
    "prealloc-only": OptimizationFlags(True, False, True),
    "none": OptimizationFlags.none(),
}


@functools.lru_cache(maxsize=None)
def program_set(name):
    """``(label, program, sizes)`` per program of one set."""
    if name == "apps":
        return tuple(
            (app, ALL_APPS[app].build(), dict(ALL_APPS[app].default_params))
            for app in sorted(ALL_APPS)
        )
    if name == "corpus":
        specs = load_corpus(str(CORPUS))
    else:
        generator = ProgramGenerator(seed=7)
        specs = [generator.random_spec() for _ in range(100)]
    return tuple(
        (f"{name}-{index}", build_program(spec), {})
        for index, spec in enumerate(specs)
    )


@functools.lru_cache(maxsize=None)
def compiled_set(name, config):
    """``(label, CompiledProgram)`` per program of a set under one config:
    a flag set, or ``"split-forcing"`` for the oracle's forced mapping."""
    result = []
    for label, program, sizes in program_set(name):
        if config == "split-forcing":
            analysis = analyze_program(program, **sizes)
            if len(analysis.kernels) != 1:
                continue
            mapping, _ = split_forcing_mapping(analysis.kernels[0])
            if mapping is None:
                continue
            session = GpuSession(strategy=mapping)
        else:
            session = GpuSession(flags=FLAGS[config])
        result.append((label, session.compile(program, **sizes)))
    return tuple(result)


SETS = ("apps", "corpus", "generated")


def syntax_check(modules):
    """One g++ run over ``(label, source)`` pairs; returns its stderr."""
    gxx = shutil.which("g++")
    assert gxx, "g++ is required to check the generated CUDA"
    unit = "\n".join(
        f"namespace m{index} {{ // {label}\n{source}\n}}"
        for index, (label, source) in enumerate(modules)
    )
    run = subprocess.run(
        [gxx, "-std=c++17", "-fsyntax-only", "-include", str(SHIM),
         "-x", "c++", "-"],
        input=unit, capture_output=True, text=True, timeout=300,
    )
    return "" if run.returncode == 0 else run.stderr


@pytest.mark.parametrize("set_name", SETS)
def test_module_sources_compile(set_name):
    modules = [
        (f"{label} [{config}]", compiled.cuda_source)
        for config in ("default", "none", "split-forcing")
        for label, compiled in compiled_set(set_name, config)
    ]
    assert len(modules) >= 2 * len(program_set(set_name))
    errors = syntax_check(modules)
    assert not errors, errors[:4000]


def test_snapshots_compile():
    snapshots = sorted(HERE.glob("snapshots/*.cu"))
    assert len(snapshots) == 7
    modules = [(path.name, path.read_text()) for path in snapshots]
    errors = syntax_check(modules)
    assert not errors, errors[:4000]


def _eval_stride(source, sizes):
    """Evaluate a symbolic C stride (products of size expressions)."""
    return eval(source.replace("/", "//"), {"__builtins__": {}}, dict(sizes))


@pytest.mark.parametrize("set_name", SETS)
@pytest.mark.parametrize("config", ("default", "prealloc-only", "none"))
def test_codegen_emits_the_priced_plan(set_name, config):
    checked = 0
    for label, compiled in compiled_set(set_name, config):
        env = compiled.analysis.env
        cost = compiled.estimate_cost()
        for decision, kernel, priced in zip(
            compiled.decisions, compiled.module.kernels, cost.kernels
        ):
            where = (label, kernel.name, str(decision.mapping))
            # (a) one combiner rule
            rule = decision.analysis.needs_combiner(decision.mapping)
            assert bool(kernel.combiner_source) == bool(rule), where
            assert (priced.combiner_us > 0) == bool(rule), where
            # (b) one layout
            plan = decision.plan
            buffers = {
                name for _, name in kernel.params if name.endswith("_buf")
            }
            assert buffers == {
                f"{key}_buf" for key in kernel.buffer_strides
            }, where
            assert plan.prealloc or not buffers, where
            for key, strides in kernel.buffer_strides.items():
                site = max(
                    decision.analysis.accesses.for_array(key),
                    key=lambda s: len(s.axis_forms),
                )
                expected = plan.strides_for(key) or row_major(site.shape)
                emitted = tuple(_eval_stride(s, env.values) for s in strides)
                assert emitted == tuple(expected), (where, key, strides)
                checked += 1
    if config != "none" and set_name != "generated":
        assert checked > 0


_LAUNCH = re.compile(r"^\s*(\w+)<<<[^>]*>>>\((.*)\);$", re.M)
_SIGNATURE = re.compile(r"^__global__ void (\w+)\((.*)\) \{$", re.M)


@pytest.mark.parametrize("set_name", ("apps", "corpus"))
def test_host_launches_match_kernel_signatures(set_name):
    launches = 0
    for label, compiled in compiled_set(set_name, "default"):
        driver = generate_host_driver(compiled.module, compiled.size_hints)
        declared = {
            name: len(params.split(", "))
            for name, params in _SIGNATURE.findall(driver)
        }
        for name, args in _LAUNCH.findall(driver):
            assert len(args.split(", ")) == declared[name], (label, name)
            launches += 1
    assert launches >= len(program_set(set_name))
