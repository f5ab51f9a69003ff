"""Lowering of IR expressions to CUDA C source text.

Array accesses are linearized here: logical indices become a flat offset
using either the array's declared shape (row-major) or, for preallocated
intermediates, the offset/stride values chosen by the layout optimization
(Figure 11 of the paper) — which is exactly how the same logical access
pattern compiles to different physical access patterns per mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..errors import CodegenError
from ..ir.expr import (
    ArrayRead,
    BinOp,
    Call,
    Cast,
    Cmp,
    Const,
    Expr,
    FieldRead,
    Length,
    Param,
    RandomIndex,
    Select,
    UnOp,
    Var,
)
from ..ir.functions import FnCall
from ..ir.types import ArrayType, ScalarType

_CALL_NAMES = {
    "sqrt": "sqrt",
    "exp": "exp",
    "log": "log",
    "pow": "pow",
    "abs": "fabs",
    "floor": "floor",
    "ceil": "ceil",
    "sin": "sin",
    "cos": "cos",
    "tanh": "tanh",
}

_BIN_FUNCS = {"min": "min", "max": "max"}


@dataclass
class ArrayInfo:
    """Physical-layout facts for one array visible to a kernel."""

    #: C identifier of the base pointer.
    c_name: str
    #: Per-axis element strides as C expressions (innermost layout aware).
    strides: Tuple[str, ...]
    #: Optional constant offset expression added to every access.
    offset: str = "0"


@dataclass
class CodegenContext:
    """Name bindings and array layouts for expression lowering."""

    arrays: Dict[str, ArrayInfo] = field(default_factory=dict)
    #: Scalar renames (e.g. pattern index -> computed thread index name).
    renames: Dict[str, str] = field(default_factory=dict)
    #: Node-identity substitutions: pattern subexpressions hoisted into
    #: local variables by the kernel generator.
    substitutions: Dict[object, str] = field(default_factory=dict)

    def array_info(self, name: str) -> ArrayInfo:
        try:
            return self.arrays[name]
        except KeyError:
            raise CodegenError(f"no layout registered for array {name!r}")

    def name_of(self, name: str) -> str:
        return self.renames.get(name, name)


def c_type(ty) -> str:
    if isinstance(ty, ScalarType):
        return ty.cuda_name
    if isinstance(ty, ArrayType):
        return c_type(ty.elem) + "*"
    raise CodegenError(f"no CUDA type for {ty}")


def lower_expr(expr: Expr, ctx: CodegenContext) -> str:
    """Render an expression as CUDA C source."""
    if expr in ctx.substitutions:
        return ctx.substitutions[expr]
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, float):
            text = repr(float(expr.value))
            return text if ("." in text or "e" in text) else text + ".0"
        return str(expr.value)
    if isinstance(expr, (Var, Param)):
        return ctx.name_of(expr.name)
    if isinstance(expr, BinOp):
        lhs, rhs = lower_expr(expr.lhs, ctx), lower_expr(expr.rhs, ctx)
        if expr.op in _BIN_FUNCS:
            return f"{_BIN_FUNCS[expr.op]}({lhs}, {rhs})"
        if expr.op == "//":
            return f"({lhs} / {rhs})"
        if expr.op == "/":
            return f"({lhs} / (double){rhs})" if _is_int(expr.lhs) and _is_int(
                expr.rhs
            ) else f"({lhs} / {rhs})"
        return f"({lhs} {expr.op} {rhs})"
    if isinstance(expr, UnOp):
        operand = lower_expr(expr.operand, ctx)
        return f"(!{operand})" if expr.op == "not" else f"(-{operand})"
    if isinstance(expr, Cmp):
        return f"({lower_expr(expr.lhs, ctx)} {expr.op} {lower_expr(expr.rhs, ctx)})"
    if isinstance(expr, Select):
        return (
            f"({lower_expr(expr.cond, ctx)} ? {lower_expr(expr.if_true, ctx)}"
            f" : {lower_expr(expr.if_false, ctx)})"
        )
    if isinstance(expr, Call):
        args = ", ".join(lower_expr(a, ctx) for a in expr.args)
        return f"{_CALL_NAMES[expr.fn]}({args})"
    if isinstance(expr, FnCall):
        args = ", ".join(lower_expr(a, ctx) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, Cast):
        return f"(({c_type(expr.ty)}){lower_expr(expr.operand, ctx)})"
    if isinstance(expr, ArrayRead):
        return array_ref(expr.array, expr.indices, ctx)
    if isinstance(expr, FieldRead):
        # Struct parameters are flattened into per-field kernel arguments.
        base = _struct_base(expr, ctx)
        return ctx.name_of(base)
    if isinstance(expr, Length):
        info = array_name(expr.array)
        return ctx.name_of(f"{info}__len{expr.axis}")
    if isinstance(expr, RandomIndex):
        return f"(repro_rand() % {lower_expr(expr.size, ctx)})"
    raise CodegenError(f"cannot lower {type(expr).__name__} to CUDA")


def array_ref(array: Expr, indices: Sequence[Expr], ctx: CodegenContext) -> str:
    """Render ``array[indices...]`` as a linearized pointer access."""
    key = array_name(array)
    info = ctx.array_info(key)
    if len(indices) > len(info.strides):
        raise CodegenError(
            f"array {key!r} has {len(info.strides)} physical axes, "
            f"access uses {len(indices)}"
        )
    # For intermediates, leading physical axes are bound to enclosing
    # pattern indices via the offset expression; the access's own indices
    # consume the trailing strides.
    strides = info.strides[len(info.strides) - len(indices):]
    terms = [info.offset] if info.offset != "0" else []
    for idx, stride in zip(indices, strides):
        idx_src = lower_expr(idx, ctx)
        terms.append(idx_src if stride == "1" else f"{idx_src} * {stride}")
    offset = " + ".join(terms) if terms else "0"
    return f"{info.c_name}[{offset}]"


def array_name(array: Expr) -> str:
    if isinstance(array, (Var, Param)):
        return array.name
    if isinstance(array, FieldRead):
        return _struct_base(array, None)
    raise CodegenError(
        f"cannot name array expression {type(array).__name__}"
    )


def _struct_base(expr: FieldRead, ctx: Optional[CodegenContext]) -> str:
    inner = expr.struct
    if isinstance(inner, (Var, Param)):
        return f"{inner.name}_{expr.field_name}"
    if isinstance(inner, FieldRead):
        return f"{_struct_base(inner, ctx)}_{expr.field_name}"
    raise CodegenError("struct accesses must be rooted at a parameter")


def _is_int(expr: Expr) -> bool:
    return isinstance(expr.ty, ScalarType) and expr.ty.is_integer
