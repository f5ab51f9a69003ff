"""The cross-strategy differential oracle for one program.

For a given spec (or raw program) the oracle checks, in order:

1. **Serialization round-trip** — ``loads(dumps(p))`` is alpha-equivalent
   to ``p`` (the reproducer format must be able to carry any generated
   program).
2. **Interpreter self-consistency** — the vectorized and per-iteration
   loop evaluation paths agree (tight-tolerance comparison; the two paths
   may sum floats in different orders).
3. **Strategy matrix** — the program compiles and runs under every named
   strategy ("multidim" plus the three fixed baselines) crossed with the
   optimization flags (all on / all off).  Results must be bit-identical
   to the vectorized interpreter; the chosen mapping must satisfy every
   hard constraint ("multidim" always; fixed baselines are *skipped*, not
   failed, when the nest is structurally outside their reach); the cost
   model must return finite, positive time; any ``Split(k)`` level must
   come with a non-empty combiner kernel.
4. **Split forcing** — an explicit ``Split(k)`` mapping is constructed
   for the first splittable level and pushed through the same checks,
   guaranteeing the combiner path is exercised even when the search
   would not choose it.
5. **Recipe replay** — the transformation recipe recorded by the default
   compile survives a JSON round-trip with a stable content digest, and
   replaying it pass-by-pass reproduces the LaunchPlans and CUDA
   byte-identically (``verify_recipe``).

Each violated check becomes a :class:`CheckFailure`; a program passes
when ``report.ok``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.mapping import Mapping, Split
from ..analysis.scoring import hard_feasible
from ..analysis.strategies import split_forcing
from ..errors import ReproError
from ..interp.evaluator import run_program
from ..ir.expr import Const, Param
from ..ir.patterns import Filter, Foreach, GroupBy, Map, Program, Reduce, ZipWith
from ..ir.serialize import dumps, loads
from ..ir.traversal import find_instances, structurally_equal
from ..ir.types import ArrayType, ScalarType
from ..optim.pipeline import OptimizationFlags
from ..runtime.session import GpuSession
from .specs import ProgramSpec

#: Strategies every program is pushed through (besides explicit mappings).
NAMED_STRATEGIES = ("multidim", "1d", "thread-block/thread", "warp-based")

#: Flag configurations: the paper's default and the full ablation baseline.
FLAG_CONFIGS: Tuple[Tuple[str, OptimizationFlags], ...] = (
    ("opt", OptimizationFlags.default()),
    ("noopt", OptimizationFlags.none()),
)


@dataclass
class CheckFailure:
    """One violated oracle check."""

    stage: str  # e.g. "interp", "strategy:multidim/opt", "split-forcing"
    message: str

    def __str__(self) -> str:
        return f"[{self.stage}] {self.message}"


@dataclass
class OracleReport:
    """Everything the oracle learned about one program."""

    program_name: str
    spec: Optional[ProgramSpec] = None
    failures: List[CheckFailure] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    #: Pattern kinds present in the program (lowercase class names).
    pattern_kinds: frozenset = frozenset()
    #: Some checked mapping used Split(k) (combiner path exercised).
    split_exercised: bool = False
    #: Some launch plan preallocated a dynamic inner allocation.
    prealloc_exercised: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, stage: str, message: str) -> None:
        self.failures.append(CheckFailure(stage, message))

    def describe(self) -> str:
        lines = [f"program {self.program_name}: "
                 f"{'OK' if self.ok else f'{len(self.failures)} failure(s)'}"]
        lines.extend(f"  {f}" for f in self.failures)
        lines.extend(f"  skipped: {s}" for s in self.skipped)
        return "\n".join(lines)


# -- inputs ----------------------------------------------------------------


def make_inputs(program: Program, seed: int = 0) -> Dict[str, Any]:
    """Synthesize deterministic inputs for a program's parameter list.

    Sizes come from the program's size hints; array shapes are evaluated
    from ``array_shapes`` (parameters and constants).  Float arrays draw
    from ``uniform(-1, 2)`` so sign-based predicates see both branches.
    """
    rng = np.random.default_rng(seed)
    env = dict(program.size_hints)
    values: Dict[str, Any] = {}

    def eval_shape(expr: Any) -> int:
        if isinstance(expr, Const):
            return int(expr.value)
        if isinstance(expr, Param):
            try:
                return int(env[expr.name])
            except KeyError:
                raise ReproError(
                    f"array shape references size {expr.name!r} with no hint"
                )
        raise ReproError(
            f"cannot evaluate shape expression {type(expr).__name__}"
        )

    for param in program.params:
        if isinstance(param.ty, ArrayType):
            shape = tuple(
                eval_shape(e) for e in program.array_shapes[param.name]
            )
            if isinstance(param.ty.elem, ScalarType) and param.ty.elem.name in (
                "i32", "i64"
            ):
                values[param.name] = rng.integers(0, 8, size=shape)
            else:
                values[param.name] = rng.uniform(-1.0, 2.0, size=shape)
        elif param.name in env:
            values[param.name] = int(env[param.name])
        else:
            values[param.name] = 1.0
    return values


# -- result comparison -----------------------------------------------------


def _is_ragged(value: Any) -> bool:
    """True for a list/tuple whose elements have mismatched lengths
    (numpy refuses to build a regular array from those)."""
    if not isinstance(value, (list, tuple)):
        return False
    lengths = set()
    for item in value:
        if isinstance(item, (list, tuple)):
            lengths.add(len(item))
        elif isinstance(item, np.ndarray):
            lengths.add(item.shape[0] if item.ndim else -1)
        else:
            lengths.add(-1)
    return len(lengths) > 1


def results_equal(a: Any, b: Any, exact: bool = True) -> bool:
    """Structural comparison of interpreter outputs.

    Handles scalars, arrays, ragged lists (filter/groupBy output), dicts
    (groupBy), and ``None`` (foreach).  ``exact=False`` allows tiny
    floating-point drift for the vectorized-vs-loop comparison, where the
    two paths legally sum in different orders.
    """
    if isinstance(a, dict) or isinstance(b, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)):
            return False
        if set(a.keys()) != set(b.keys()):
            return False
        return all(results_equal(a[k], b[k], exact) for k in a)
    if a is None or b is None:
        return a is None and b is None
    if _is_ragged(a) or _is_ragged(b):
        # Ragged nested output: compare element-wise.
        try:
            if len(a) != len(b):
                return False
        except TypeError:
            return False
        return all(results_equal(x, y, exact) for x, y in zip(a, b))
    a_arr, b_arr = np.asarray(a), np.asarray(b)
    if a_arr.dtype == object or b_arr.dtype == object:
        if len(a) != len(b):
            return False
        return all(results_equal(x, y, exact) for x, y in zip(a, b))
    if a_arr.shape != b_arr.shape:
        return False
    if exact:
        return bool(np.array_equal(a_arr, b_arr))
    return bool(
        np.allclose(
            a_arr.astype(float), b_arr.astype(float), rtol=1e-9, atol=1e-12
        )
    )


def _pattern_kinds(program: Program) -> frozenset:
    kinds = set()
    for cls, name in (
        (ZipWith, "zipwith"),
        (Foreach, "foreach"),
        (Filter, "filter"),
        (Reduce, "reduce"),
        (GroupBy, "groupby"),
    ):
        if find_instances(program.result, cls):
            kinds.add(name)
    # ZipWith is-a Map; count plain maps separately.
    if any(
        type(node) is Map for node in find_instances(program.result, Map)
    ):
        kinds.add("map")
    return frozenset(kinds)


# -- the oracle ------------------------------------------------------------


def check_program(
    program: Program,
    spec: Optional[ProgramSpec] = None,
    seed: int = 0,
    run_split_forcing: bool = True,
) -> OracleReport:
    """Run the full differential check battery on one program."""
    report = OracleReport(
        program_name=program.name,
        spec=spec,
        pattern_kinds=_pattern_kinds(program),
    )

    # 1. serialization round-trip
    try:
        rebuilt = loads(dumps(program))
        if not structurally_equal(program.result, rebuilt.result):
            report.fail("serialize", "round-trip is not alpha-equivalent")
    except ReproError as exc:
        report.fail("serialize", f"round-trip raised: {exc}")

    # 2. interpreter self-consistency (loop path is the ground truth:
    #    it follows the IR one iteration at a time with no rewrites)
    inputs = make_inputs(program, seed=seed)
    try:
        loop_inputs = copy.deepcopy(inputs)
        loop_result = run_program(
            program, seed=seed, vectorize=False, **loop_inputs
        )
    except ReproError as exc:
        report.fail("interp", f"loop path raised: {exc}")
        return report
    try:
        vec_inputs = copy.deepcopy(inputs)
        vec_result = run_program(
            program, seed=seed, vectorize=True, **vec_inputs
        )
    except ReproError as exc:
        report.fail("interp", f"vectorized path raised: {exc}")
        return report
    if not results_equal(loop_result, vec_result, exact=False):
        report.fail("interp", "vectorized and loop paths disagree")
    if not results_equal(loop_inputs, vec_inputs, exact=False):
        report.fail("interp", "paths mutated inputs differently")

    # 3. named strategies x optimization flags
    for strategy in NAMED_STRATEGIES:
        for flag_name, flags in FLAG_CONFIGS:
            _check_strategy(
                program, strategy, flags, f"strategy:{strategy}/{flag_name}",
                vec_result, vec_inputs, inputs, seed, report,
            )

    # 4. explicit Split(k) forcing
    if run_split_forcing:
        _check_split_forcing(
            program, vec_result, vec_inputs, inputs, seed, report
        )

    # 5. recipe round-trip + byte-identical replay
    _check_recipe(program, report)

    return report


def check_spec(
    spec: ProgramSpec, seed: int = 0, run_split_forcing: bool = True
) -> OracleReport:
    """Build a spec's program and run the oracle on it."""
    from .generator import build_program

    try:
        program = build_program(spec)
    except ReproError as exc:
        report = OracleReport(program_name=f"<unbuildable:{spec.describe()}>",
                              spec=spec)
        report.fail("build", f"spec did not build: {exc}")
        return report
    return check_program(
        program, spec=spec, seed=seed, run_split_forcing=run_split_forcing
    )


def _check_strategy(
    program: Program,
    strategy: Any,
    flags: OptimizationFlags,
    stage: str,
    expected: Any,
    expected_inputs: Dict[str, Any],
    inputs: Dict[str, Any],
    seed: int,
    report: OracleReport,
    require_feasible: bool = False,
) -> None:
    """Compile + run one (strategy, flags) cell and record violations."""
    try:
        session = GpuSession(strategy=strategy, flags=flags)
        compiled = session.compile(program)
    except ReproError as exc:
        if isinstance(strategy, str) and strategy != "multidim":
            # Fixed baselines legitimately reject some nests (e.g. a
            # mapping shallower than the nest); record, don't fail.
            report.skipped.append(f"{stage}: {exc}")
            return
        report.fail(stage, f"compilation raised: {exc}")
        return

    # hard-constraint satisfaction
    strict = require_feasible or strategy == "multidim" or isinstance(
        strategy, Mapping
    )
    for i, decision in enumerate(compiled.decisions):
        feasible = hard_feasible(
            decision.mapping,
            decision.analysis.constraints,
            decision.analysis.level_sizes(),
        )
        if feasible:
            continue
        if strict:
            report.fail(
                stage,
                f"kernel {i} mapping {decision.mapping} violates a hard "
                "constraint",
            )
            return
        report.skipped.append(
            f"{stage}: kernel {i} infeasible under fixed baseline"
        )
        return

    # codegen sanity: a mapping that needs a combiner (the analysis's
    # rule) must come with a combiner kernel.
    for decision, kernel in zip(compiled.decisions, compiled.module.kernels):
        if any(isinstance(lm.span, Split) for lm in decision.mapping.levels):
            report.split_exercised = True
        if decision.analysis.needs_combiner(decision.mapping):
            if not kernel.combiner_source:
                report.fail(
                    stage,
                    f"mapping {decision.mapping} uses Split(k) on a "
                    f"reducing level but kernel {kernel.name} has no "
                    "combiner kernel",
                )
            elif "_combine" not in compiled.module.source:
                report.fail(
                    stage,
                    "combiner kernel missing from the module source",
                )
    if not compiled.module.source.strip():
        report.fail(stage, "empty generated module")
    if any(
        dict(decision.plan.layout_strides) for decision in compiled.decisions
    ):
        report.prealloc_exercised = True

    # execution agrees bit-for-bit with the interpreter
    try:
        run_inputs = copy.deepcopy(inputs)
        result = compiled.run(seed=seed, **run_inputs)
    except ReproError as exc:
        report.fail(stage, f"execution raised: {exc}")
        return
    if not results_equal(expected, result, exact=True):
        report.fail(stage, "result differs from the interpreter")
    if not results_equal(expected_inputs, run_inputs, exact=True):
        report.fail(stage, "input mutation differs from the interpreter")

    # finite positive cost
    try:
        cost = compiled.estimate_cost()
    except ReproError as exc:
        report.fail(stage, f"cost model raised: {exc}")
        return
    bad = cost.check_finite()
    if bad:
        report.fail(stage, f"non-finite cost components: {', '.join(bad)}")
    elif cost.total_us <= 0:
        report.fail(stage, f"cost model returned {cost.total_us} us")


def split_forcing_mapping(kernel: Any) -> Tuple[Optional[Mapping], str]:
    """The ``Split(k)``-forcing mapping for one analyzed kernel.

    Splits the first level with a splittable sync constraint (the
    combiner is mandatory there), otherwise any unconstrained level.
    Returns ``(mapping, "")``, or ``(None, reason)`` when no level can be
    split feasibly.
    """
    sizes = kernel.level_sizes()
    splittable = kernel.constraints.span_all_levels()
    level = next((lvl for lvl, ok in sorted(splittable.items()) if ok), None)
    if level is None:
        level = next(
            (lvl for lvl in range(kernel.depth) if lvl not in splittable),
            None,
        )
    if level is None:
        return None, "no splittable level"
    if sizes[level] < 2:
        return None, "domain too small to split"
    mapping = split_forcing(sizes, level, k=2, block_size=64)
    if not hard_feasible(mapping, kernel.constraints, sizes):
        return None, f"{mapping} infeasible at level {level}"
    return mapping, ""


def _check_split_forcing(
    program: Program,
    expected: Any,
    expected_inputs: Dict[str, Any],
    inputs: Dict[str, Any],
    seed: int,
    report: OracleReport,
) -> None:
    """Force Split(k) on the first splittable level, when one exists."""
    from ..analysis.analyzer import analyze_program

    try:
        analysis = analyze_program(program)
    except ReproError as exc:
        report.fail("split-forcing", f"analysis raised: {exc}")
        return
    if len(analysis.kernels) != 1:
        report.skipped.append(
            "split-forcing: program has multiple kernels"
        )
        return
    try:
        mapping, reason = split_forcing_mapping(analysis.kernels[0])
    except ReproError as exc:
        report.fail("split-forcing", f"mapping construction raised: {exc}")
        return
    if mapping is None:
        report.skipped.append(f"split-forcing: {reason}")
        return
    _check_strategy(
        program, mapping, OptimizationFlags.default(), "split-forcing",
        expected, expected_inputs, inputs, seed, report,
        require_feasible=True,
    )


def _check_recipe(program: Program, report: OracleReport) -> None:
    """Recipe round-trip + replay: the recorded pass pipeline must
    survive JSON serialization and reproduce the compile byte-for-byte."""
    import json

    from ..optim.passes.recipe import Recipe, verify_recipe

    try:
        session = GpuSession(
            strategy="multidim", flags=OptimizationFlags.default()
        )
        compiled = session.compile(program)
        recipe = compiled.recipe()
    except ReproError as exc:
        report.fail("recipe", f"recipe construction raised: {exc}")
        return

    try:
        rebuilt = Recipe.from_json(json.loads(json.dumps(recipe.to_json())))
    except (ReproError, ValueError, KeyError, TypeError) as exc:
        report.fail("recipe", f"JSON round-trip raised: {exc}")
        return
    if rebuilt.content_digest() != recipe.content_digest():
        report.fail(
            "recipe",
            "content digest changed across the JSON round-trip: "
            f"{recipe.content_digest()[:12]} != "
            f"{rebuilt.content_digest()[:12]}",
        )
        return

    try:
        summary = verify_recipe(program, rebuilt)
    except ReproError as exc:
        report.fail("recipe", f"replay diverged: {exc}")
        return
    if summary.get("skipped_degraded"):
        report.skipped.append(
            f"recipe: {summary['skipped_degraded']} degraded kernel(s) "
            "not replayed"
        )
