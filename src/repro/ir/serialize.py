"""JSON serialization for IR trees and programs.

The differential-testing harness stores failing programs as *replayable
artifacts*: a reproducer file carries the serialized program alongside the
generator spec that produced it, so a failure found in a long fuzz run can
be re-executed (and re-shrunk) without re-running the generator.  The
format is also handy for golden tests and for shipping programs between
processes.

Round-trip contract: ``program_from_dict(program_to_dict(p))`` is
structurally equal to ``p`` (:func:`repro.ir.traversal.structurally_equal`)
and evaluates identically.  Node *identity* is not preserved — rebuilt
trees are fresh objects — which is fine everywhere identity matters only
per-occurrence (the analyses re-run on the rebuilt tree).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from typing import Any, Dict, Mapping, Optional

from ..errors import IRError
from .expr import (
    Alloc,
    ArrayRead,
    BinOp,
    Bind,
    Block,
    Call,
    Cast,
    Cmp,
    Const,
    Expr,
    ExprStmt,
    FieldRead,
    If,
    Length,
    Node,
    Param,
    RandomIndex,
    Select,
    Stmt,
    Store,
    UnOp,
    Var,
)
from .functions import FnCall
from .patterns import Filter, Foreach, GroupBy, Map, Program, Reduce, ZipWith
from .types import ArrayType, ScalarType, StructType, Type

#: Bumped on any incompatible format change; loaders check it.
FORMAT_VERSION = 1

#: Version of the *pipeline behavior* (analysis + search + optimizer +
#: codegen), as opposed to the serialization schema above.  The compile
#: service's content-addressed artifact store keys every artifact on
#: :func:`compile_digest`, which covers both versions — bump this when a
#: change makes previously generated artifacts (mappings, CUDA, costs)
#: stale even though the IR format is unchanged, and every cached
#: artifact is transparently invalidated.
PIPELINE_VERSION = 8

_SCALARS = {"f32", "f64", "i32", "i64", "bool"}


# -- types -----------------------------------------------------------------


def type_to_dict(ty: Type) -> Dict[str, Any]:
    if isinstance(ty, ScalarType):
        return {"t": "scalar", "name": ty.name}
    if isinstance(ty, ArrayType):
        return {"t": "array", "elem": type_to_dict(ty.elem), "rank": ty.rank}
    if isinstance(ty, StructType):
        return {
            "t": "struct",
            "name": ty.name,
            "fields": [[n, type_to_dict(ft)] for n, ft in ty.fields],
        }
    raise IRError(f"cannot serialize type {ty!r}")


def type_from_dict(data: Dict[str, Any]) -> Type:
    kind = data["t"]
    if kind == "scalar":
        from . import types as _types

        name = data["name"]
        if name not in _SCALARS:
            raise IRError(f"unknown scalar type {name!r}")
        return getattr(_types, name.upper() if name != "bool" else "BOOL")
    if kind == "array":
        return ArrayType(type_from_dict(data["elem"]), data["rank"])
    if kind == "struct":
        return StructType(
            data["name"],
            tuple((n, type_from_dict(ft)) for n, ft in data["fields"]),
        )
    raise IRError(f"unknown type tag {kind!r}")


# -- nodes -----------------------------------------------------------------


def node_to_dict(node: Node) -> Dict[str, Any]:
    """Serialize any IR node (expression, statement, or pattern)."""
    if isinstance(node, Const):
        return {"n": "const", "value": node.value, "ty": type_to_dict(node.ty)}
    if isinstance(node, Var):
        return {"n": "var", "name": node.name, "ty": type_to_dict(node.ty)}
    if isinstance(node, Param):
        return {"n": "param", "name": node.name, "ty": type_to_dict(node.ty)}
    if isinstance(node, RandomIndex):
        return {
            "n": "rand",
            "size": node_to_dict(node.size),
            "seed_hint": node.seed_hint,
        }
    if isinstance(node, BinOp):
        return {
            "n": "binop",
            "op": node.op,
            "lhs": node_to_dict(node.lhs),
            "rhs": node_to_dict(node.rhs),
        }
    if isinstance(node, UnOp):
        return {"n": "unop", "op": node.op, "operand": node_to_dict(node.operand)}
    if isinstance(node, Cmp):
        return {
            "n": "cmp",
            "op": node.op,
            "lhs": node_to_dict(node.lhs),
            "rhs": node_to_dict(node.rhs),
        }
    if isinstance(node, Select):
        return {
            "n": "select",
            "cond": node_to_dict(node.cond),
            "if_true": node_to_dict(node.if_true),
            "if_false": node_to_dict(node.if_false),
            "prob": node.prob,
        }
    if isinstance(node, Call):
        return {"n": "call", "fn": node.fn, "args": [node_to_dict(a) for a in node.args]}
    if isinstance(node, FnCall):
        return {
            "n": "fncall",
            "name": node.name,
            "args": [node_to_dict(a) for a in node.args],
        }
    if isinstance(node, Cast):
        return {
            "n": "cast",
            "operand": node_to_dict(node.operand),
            "ty": type_to_dict(node.ty),
        }
    if isinstance(node, ArrayRead):
        return {
            "n": "read",
            "array": node_to_dict(node.array),
            "indices": [node_to_dict(i) for i in node.indices],
        }
    if isinstance(node, FieldRead):
        return {
            "n": "field",
            "struct": node_to_dict(node.struct),
            "field": node.field_name,
        }
    if isinstance(node, Length):
        return {"n": "len", "array": node_to_dict(node.array), "axis": node.axis}
    if isinstance(node, Alloc):
        return {
            "n": "alloc",
            "elem": type_to_dict(node.elem),
            "shape": [node_to_dict(s) for s in node.shape],
        }
    if isinstance(node, Block):
        return {
            "n": "block",
            "stmts": [node_to_dict(s) for s in node.stmts],
            "result": node_to_dict(node.result),
        }
    if isinstance(node, Bind):
        return {
            "n": "bind",
            "var": node_to_dict(node.var),
            "value": node_to_dict(node.value),
        }
    if isinstance(node, Store):
        return {
            "n": "store",
            "array": node_to_dict(node.array),
            "indices": [node_to_dict(i) for i in node.indices],
            "value": node_to_dict(node.value),
        }
    if isinstance(node, If):
        return {
            "n": "if",
            "cond": node_to_dict(node.cond),
            "then": [node_to_dict(s) for s in node.then],
            "otherwise": [node_to_dict(s) for s in node.otherwise],
            "prob": node.prob,
        }
    if isinstance(node, ExprStmt):
        return {"n": "exprstmt", "expr": node_to_dict(node.expr)}
    # -- patterns (checked before Map's subclasses shadow each other) ------
    if isinstance(node, Foreach):
        return {
            "n": "foreach",
            "size": node_to_dict(node.size),
            "index": node_to_dict(node.index),
            "body": [node_to_dict(s) for s in node.body],
        }
    if isinstance(node, Filter):
        return {
            "n": "filter",
            "size": node_to_dict(node.size),
            "index": node_to_dict(node.index),
            "pred": node_to_dict(node.pred),
            "value": node_to_dict(node.value),
        }
    if isinstance(node, Reduce):
        data: Dict[str, Any] = {
            "n": "reduce",
            "size": node_to_dict(node.size),
            "index": node_to_dict(node.index),
            "body": node_to_dict(node.body),
            "op": node.op,
        }
        if node.combine is not None:
            lhs, rhs, combine = node.combine
            data["combine"] = [
                node_to_dict(lhs),
                node_to_dict(rhs),
                node_to_dict(combine),
            ]
        return data
    if isinstance(node, GroupBy):
        return {
            "n": "groupby",
            "size": node_to_dict(node.size),
            "index": node_to_dict(node.index),
            "key": node_to_dict(node.key),
            "value": node_to_dict(node.value),
        }
    if isinstance(node, Map):  # covers ZipWith via the kind tag
        return {
            "n": "zipwith" if isinstance(node, ZipWith) else "map",
            "size": node_to_dict(node.size),
            "index": node_to_dict(node.index),
            "body": node_to_dict(node.body),
        }
    raise IRError(f"cannot serialize node {type(node).__name__}")


def node_from_dict(data: Dict[str, Any]) -> Node:
    """Rebuild an IR node from its serialized form."""
    kind = data["n"]
    if kind == "const":
        return Const(data["value"], type_from_dict(data["ty"]))
    if kind == "var":
        return Var(data["name"], type_from_dict(data["ty"]))
    if kind == "param":
        return Param(data["name"], type_from_dict(data["ty"]))
    if kind == "rand":
        return RandomIndex(_expr(data["size"]), data.get("seed_hint", 0))
    if kind == "binop":
        return BinOp(data["op"], _expr(data["lhs"]), _expr(data["rhs"]))
    if kind == "unop":
        return UnOp(data["op"], _expr(data["operand"]))
    if kind == "cmp":
        return Cmp(data["op"], _expr(data["lhs"]), _expr(data["rhs"]))
    if kind == "select":
        return Select(
            _expr(data["cond"]),
            _expr(data["if_true"]),
            _expr(data["if_false"]),
            data.get("prob", 0.5),
        )
    if kind == "call":
        return Call(data["fn"], [_expr(a) for a in data["args"]])
    if kind == "fncall":
        return FnCall(data["name"], [_expr(a) for a in data["args"]])
    if kind == "cast":
        ty = type_from_dict(data["ty"])
        if not isinstance(ty, ScalarType):
            raise IRError("cast target must be scalar")
        return Cast(_expr(data["operand"]), ty)
    if kind == "read":
        return ArrayRead(_expr(data["array"]), [_expr(i) for i in data["indices"]])
    if kind == "field":
        return FieldRead(_expr(data["struct"]), data["field"])
    if kind == "len":
        return Length(_expr(data["array"]), data.get("axis", 0))
    if kind == "alloc":
        return Alloc(type_from_dict(data["elem"]), [_expr(s) for s in data["shape"]])
    if kind == "block":
        return Block([_stmt(s) for s in data["stmts"]], _expr(data["result"]))
    if kind == "bind":
        var = node_from_dict(data["var"])
        assert isinstance(var, Var)
        return Bind(var, _expr(data["value"]))
    if kind == "store":
        return Store(
            _expr(data["array"]),
            [_expr(i) for i in data["indices"]],
            _expr(data["value"]),
        )
    if kind == "if":
        return If(
            _expr(data["cond"]),
            [_stmt(s) for s in data["then"]],
            [_stmt(s) for s in data["otherwise"]],
            data.get("prob", 0.5),
        )
    if kind == "exprstmt":
        return ExprStmt(_expr(data["expr"]))
    if kind in ("map", "zipwith"):
        cls = ZipWith if kind == "zipwith" else Map
        return cls(_expr(data["size"]), _index(data), _expr(data["body"]))
    if kind == "reduce":
        combine = None
        op = data.get("op", "+")
        if "combine" in data:
            lhs = node_from_dict(data["combine"][0])
            rhs = node_from_dict(data["combine"][1])
            assert isinstance(lhs, Var) and isinstance(rhs, Var)
            combine = (lhs, rhs, _expr(data["combine"][2]))
        return Reduce(_expr(data["size"]), _index(data), _expr(data["body"]), op, combine)
    if kind == "filter":
        return Filter(
            _expr(data["size"]), _index(data), _expr(data["pred"]), _expr(data["value"])
        )
    if kind == "groupby":
        return GroupBy(
            _expr(data["size"]), _index(data), _expr(data["key"]), _expr(data["value"])
        )
    if kind == "foreach":
        return Foreach(
            _expr(data["size"]), _index(data), [_stmt(s) for s in data["body"]]
        )
    raise IRError(f"unknown node tag {kind!r}")


def _expr(data: Dict[str, Any]) -> Expr:
    node = node_from_dict(data)
    if not isinstance(node, Expr):
        raise IRError(f"expected expression, got {type(node).__name__}")
    return node


def _stmt(data: Dict[str, Any]) -> Stmt:
    node = node_from_dict(data)
    if not isinstance(node, Stmt):
        raise IRError(f"expected statement, got {type(node).__name__}")
    return node


def _index(data: Dict[str, Any]) -> Var:
    var = node_from_dict(data["index"])
    if not isinstance(var, Var):
        raise IRError("pattern index must deserialize to a Var")
    return var


# -- programs --------------------------------------------------------------


def program_to_dict(program: Program) -> Dict[str, Any]:
    """Serialize a full program (params, result, hints, shapes)."""
    return {
        "version": FORMAT_VERSION,
        "name": program.name,
        "params": [node_to_dict(p) for p in program.params],
        "result": node_to_dict(program.result),
        "size_hints": dict(program.size_hints),
        "array_shapes": {
            name: [node_to_dict(e) for e in shape]
            for name, shape in program.array_shapes.items()
        },
    }


def program_from_dict(data: Dict[str, Any]) -> Program:
    """Rebuild a program; validates well-formedness on the way out."""
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise IRError(
            f"serialized program has format version {version}, "
            f"this build reads {FORMAT_VERSION}"
        )
    params = []
    for pdata in data["params"]:
        param = node_from_dict(pdata)
        if not isinstance(param, Param):
            raise IRError("program parameter must deserialize to a Param")
        params.append(param)
    program = Program(
        data["name"],
        tuple(params),
        _expr(data["result"]),
        dict(data.get("size_hints", {})),
        {
            name: tuple(_expr(e) for e in shape)
            for name, shape in data.get("array_shapes", {}).items()
        },
    )
    from .validate import validate_program

    validate_program(program)
    return program


def dumps(program: Program, indent: int = 2) -> str:
    """Serialize a program to a JSON string."""
    return json.dumps(program_to_dict(program), indent=indent)


def loads(text: str) -> Program:
    """Load a program from a JSON string."""
    return program_from_dict(json.loads(text))


# -- canonical digests ------------------------------------------------------


def canonical_json(data: Any) -> str:
    """The order-stable JSON encoding digests are computed over.

    Keys are sorted at every nesting level and separators carry no
    whitespace, so two dicts built in different insertion orders encode
    identically.  ``allow_nan=False`` keeps the encoding deterministic
    across platforms (NaN payloads would also make equal-looking inputs
    unequal).
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_digest(data: Any) -> str:
    """The content address of a JSON value: the SHA-256 hex of its
    :func:`canonical_json` (so NaN and infinities are refused).  Compile,
    recipe and plan-state digests and artifact fingerprints all use it."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


#: Node tags that introduce a bound index variable (``index`` field).
_PATTERN_TAGS = ("map", "zipwith", "reduce", "filter", "groupby", "foreach")


def _collect_binders(node: Any, order: list) -> None:
    """Record every binder name in deterministic traversal order."""
    if isinstance(node, list):
        for item in node:
            _collect_binders(item, order)
        return
    if not isinstance(node, dict):
        return
    tag = node.get("n")
    if tag in _PATTERN_TAGS:
        order.append(node["index"]["name"])
    elif tag == "bind":
        order.append(node["var"]["name"])
    if tag == "reduce" and "combine" in node:
        order.append(node["combine"][0]["name"])
        order.append(node["combine"][1]["name"])
    for key in sorted(node):
        _collect_binders(node[key], order)


def _rename_vars(node: Any, mapping: Dict[str, str]) -> Any:
    """Rewrite every ``var`` occurrence through ``mapping`` (params and
    free names pass through untouched)."""
    if isinstance(node, list):
        return [_rename_vars(item, mapping) for item in node]
    if not isinstance(node, dict):
        return node
    out = {key: _rename_vars(value, mapping) for key, value in node.items()}
    if out.get("n") == "var":
        out["name"] = mapping.get(out["name"], out["name"])
    return out


def _collect_names(node: Any, names: set) -> None:
    """Record every ``var``/``param`` occurrence name (free or bound)."""
    if isinstance(node, list):
        for item in node:
            _collect_names(item, names)
        return
    if not isinstance(node, dict):
        return
    if node.get("n") in ("var", "param"):
        names.add(node["name"])
    for key in sorted(node):
        _collect_names(node[key], names)


def canonical_program_dict(program: Program) -> Dict[str, Any]:
    """The canonical form of ``program``: :func:`program_to_dict` with
    every bound variable renamed to ``_b<k>``.

    The builder gensyms binder names from a process-wide counter, so two
    builds of the *same* program serialize with different index/temp
    names (``i0`` vs ``i1``).  Neither the digest nor the generated CUDA
    may see that: every bound variable (pattern indices, ``bind``
    targets, ``reduce`` combiner operands) is renamed to ``_b<k>`` (a
    valid C identifier) in deterministic traversal order, skipping any
    ``k`` whose name occurs free in the program.  Free names —
    parameters, symbolic sizes — are untouched, so their correspondence
    with ``size_hints``/``array_shapes`` keys survives.

    The rename map is flat, which is sound only under the builder's
    contract that binder names are unique and never double as free
    names.  Client-supplied IR (``program_ir`` over the wire) is under
    no such contract, so it is checked rather than assumed: when binders
    shadow each other or collide with a free name, the program keeps its
    raw names.  The fallback never renames, so two semantically
    different programs never share a canonical form; the only cost is
    that alpha-equivalent spellings of such programs stay apart (a cache
    split, not a wrong artifact).
    """
    data = program_to_dict(program)
    order: list = []
    _collect_binders(data["params"], order)
    _collect_binders(data["result"], order)
    for name in sorted(data.get("array_shapes", {})):
        _collect_binders(data["array_shapes"][name], order)
    binders = set(order)
    free: set = {p["name"] for p in data["params"]}
    free.update(data.get("size_hints") or {})
    free.update(data.get("array_shapes") or {})
    _collect_names(data.get("array_shapes") or {}, free)
    if len(binders) != len(order) or binders & free:
        return data
    used: set = set()
    _collect_names(data["result"], used)
    free |= used - binders
    targets = (f"_b{k}" for k in itertools.count() if f"_b{k}" not in free)
    return _rename_vars(data, dict(zip(order, targets)))


def canonicalize_program(program: Program) -> Program:
    """The program :func:`compile_digest` hashes, rebuilt:
    ``program_from_dict(canonical_program_dict(program))``.

    The pipeline compiles this form, so generated CUDA is a pure
    function of the digest no matter which process or fleet backend
    compiles it.
    """
    return program_from_dict(canonical_program_dict(program))


def compile_digest(
    program: Program,
    device: Any = None,
    flags: Any = None,
    strategy: Optional[str] = None,
    sizes: Optional[Mapping[str, int]] = None,
) -> str:
    """Canonical content digest of one compilation's inputs.

    Covers everything the pipeline's output depends on: the program in
    its canonical form (:func:`canonical_program_dict` — exactly the
    program the service compiles, :func:`canonicalize_program`), the
    device description (every field of the
    :class:`~repro.gpusim.device.GpuDevice` dataclass, so two devices
    that differ only in, say, shared-memory size hash apart), the
    :class:`~repro.optim.pipeline.OptimizationFlags`, the strategy, the
    size bindings, and both schema stamps (:data:`FORMAT_VERSION`,
    :data:`PIPELINE_VERSION`) — bumping either changes every digest,
    which is exactly the invalidation rule the artifact store relies on.

    Semantically equal inputs digest equal: the encoding is
    :func:`canonical_json`, so dict insertion order (size hints, array
    shapes, sizes) never leaks into the hash, and binder gensym counters
    never leak in via the program.  Canonicalizing is idempotent, so
    ``compile_digest(canonicalize_program(p)) == compile_digest(p)``.
    """
    return canonical_digest(
        canonical_program_dict(program), device, flags, strategy, sizes
    )


def canonical_digest(
    program_data: Dict[str, Any],
    device: Any = None,
    flags: Any = None,
    strategy: Optional[str] = None,
    sizes: Optional[Mapping[str, int]] = None,
) -> str:
    """:func:`compile_digest` of a program already in canonical form
    (``program_to_dict(canonicalize_program(p))``, which equals
    ``canonical_program_dict(p)``), for a caller that canonicalizes once
    and both hashes and compiles the result."""

    def _fields(value: Any) -> Any:
        if value is None:
            return None
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {
                "__class__": type(value).__qualname__,
                **{
                    f.name: _fields(getattr(value, f.name))
                    for f in dataclasses.fields(value)
                },
            }
        return value

    payload = {
        "format_version": FORMAT_VERSION,
        "pipeline_version": PIPELINE_VERSION,
        "program": program_data,
        "device": _fields(device),
        "flags": _fields(flags),
        "strategy": strategy,
        "sizes": None if sizes is None else {k: int(v) for k, v in sizes.items()},
    }
    return content_digest(payload)
