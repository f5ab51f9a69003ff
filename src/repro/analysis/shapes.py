"""Size and shape evaluation for analysis time.

The mapping analysis needs concrete numbers for pattern domains and array
strides.  Sizes are IR expressions; this module evaluates them under a
:class:`SizeEnv` that binds size parameters to representative values.  When
a size cannot be resolved (dynamically computed inner domains, unknown
array extents) the paper's default of 1000 is assumed (Section IV-C), and
the fact that it was a guess is recorded so the hard-constraint generator
can force ``Span(all)`` where required.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..config import DEFAULT_HINT_KEY, DEFAULT_SIZE_HINT, SKEW_HINT_KEY
from ..ir.expr import (
    BinOp,
    Cast,
    Const,
    Expr,
    Length,
    Param,
    Select,
    UnOp,
    Var,
)
from ..ir.patterns import Program
from ..ir.traversal import walk


@dataclass
class SizeEnv:
    """Bindings from size-parameter names to representative integer values.

    ``array_shapes`` optionally binds array parameter names to concrete
    extents so that :class:`~repro.ir.expr.Length` nodes resolve exactly.
    """

    values: Dict[str, int] = field(default_factory=dict)
    array_shapes: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    default: int = DEFAULT_SIZE_HINT
    #: Warp-max/mean ratio for dynamically sized inner domains (load
    #: imbalance of skewed loops; 1.0 = perfectly balanced).
    skew: float = 1.0

    @staticmethod
    def for_program(program: Program, **overrides: int) -> "SizeEnv":
        """Build an environment from a program's size hints plus overrides.

        Array-parameter shapes recorded by the builder are evaluated under
        the merged bindings so stride computation has concrete extents.
        The reserved ``__default__`` and ``__skew__`` hints configure the
        dynamic-size fallback and imbalance model.
        """
        values = dict(program.size_hints)
        values.update(overrides)
        default = int(values.pop(DEFAULT_HINT_KEY, DEFAULT_SIZE_HINT))
        skew = float(values.pop(SKEW_HINT_KEY, 1.0))
        env = SizeEnv(values=values, default=default, skew=skew)
        for name, shape_exprs in program.array_shapes.items():
            env.array_shapes[name] = tuple(
                int(eval_size(e, env)) for e in shape_exprs
            )
        return env

    def bind(self, **values: int) -> "SizeEnv":
        """Return a copy with additional/overriding bindings."""
        merged = dict(self.values)
        merged.update(values)
        return SizeEnv(values=merged, array_shapes=dict(self.array_shapes),
                       default=self.default, skew=self.skew)


@dataclass(frozen=True)
class SizeValue:
    """An evaluated size: the value plus whether it was exactly known."""

    value: int
    exact: bool

    def __int__(self) -> int:
        return self.value


def eval_size(expr: Expr, env: SizeEnv) -> SizeValue:
    """Evaluate a size expression to a representative integer.

    Exactness propagates: any subterm that fell back to the default hint
    makes the whole result inexact.
    """
    if isinstance(expr, Const):
        return SizeValue(int(expr.value), True)
    if isinstance(expr, Param):
        if expr.name in env.values:
            return SizeValue(int(env.values[expr.name]), True)
        return SizeValue(env.default, False)
    if isinstance(expr, Var):
        # A size depending on an enclosing pattern index (per-iteration
        # dynamic domain): representative value only.
        if expr.name in env.values:
            return SizeValue(int(env.values[expr.name]), True)
        return SizeValue(env.default, False)
    if isinstance(expr, Length):
        key = _array_key(expr.array)
        if key is not None and key in env.array_shapes:
            shape = env.array_shapes[key]
            if expr.axis < len(shape):
                return SizeValue(int(shape[expr.axis]), True)
        return SizeValue(env.default, False)
    if isinstance(expr, Cast):
        return eval_size(expr.operand, env)
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = eval_size(expr.operand, env)
        return SizeValue(-inner.value, inner.exact)
    if isinstance(expr, BinOp):
        lhs = eval_size(expr.lhs, env)
        rhs = eval_size(expr.rhs, env)
        exact = lhs.exact and rhs.exact
        if not exact:
            # Arithmetic over guessed operands fabricates nonsense (e.g.
            # offsets[n+1] - offsets[n] would "evaluate" to 0); fall back
            # to the default hint for the whole expression instead.
            return SizeValue(env.default, False)
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "//": lambda a, b: a // b if b else 0,
            "/": lambda a, b: a // b if b else 0,
            "%": lambda a, b: a % b if b else 0,
            "min": min,
            "max": max,
        }
        if expr.op not in ops:
            return SizeValue(env.default, False)
        return SizeValue(int(ops[expr.op](lhs.value, rhs.value)), exact)
    if isinstance(expr, Select):
        taken = eval_size(expr.if_true, env)
        return SizeValue(taken.value, False)
    # Anything else (reads, calls, random) is treated as unknown.
    return SizeValue(env.default, False)


def _array_key(expr: Expr) -> Optional[str]:
    """A stable name for an array object, if it has one."""
    from ..ir.expr import FieldRead

    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, FieldRead):
        base = _array_key(expr.struct)
        return f"{base}.{expr.field_name}" if base else None
    return None


def size_depends_on_indices(size: Expr, index_names: frozenset) -> bool:
    """True when a pattern's domain size varies per outer iteration.

    This is the paper's first ``Span(all)`` trigger: the size is not known
    at kernel-launch time because it depends on an enclosing pattern index
    (e.g. a vertex's neighbor count in BFS/PageRank).
    """
    for node in walk(size):
        if isinstance(node, Var) and node.name in index_names:
            return True
        if isinstance(node, Length):
            # Length of something selected by an outer index (e.g. a
            # per-row neighbor list) is also launch-dynamic.
            for sub in walk(node.array):
                if isinstance(sub, Var) and sub.name in index_names:
                    return True
    return False
