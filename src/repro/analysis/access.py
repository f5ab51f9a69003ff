"""Memory-access analysis: affine descriptors for every array access.

The locality analysis reduces each array access inside a nest to a *linear
form* over the enclosing pattern indices::

    offset(i0, i1, ...) = c0*i0 + c1*i1 + ... + const (+ opaque terms)

The coefficient of a pattern index is the element stride of the access with
respect to that index.  A coefficient of 1 means adjacent iterations of
that pattern touch adjacent memory — the *sequential access* that triggers
the paper's dim-x soft constraint, and the quantity the coalescing cost
model needs.  Non-affine subterms (gathers through another array, random
indices) are captured conservatively as opaque terms tagged with the index
variables they depend on.

Both the constraint generator and the GPU cost model consume the
:class:`AccessSite` records produced here, so the mapping the search picks
and the time the simulator charges are driven by the same facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..ir.expr import (
    Alloc,
    ArrayRead,
    BinOp,
    Bind,
    Block,
    Cast,
    Const,
    Expr,
    If,
    Length,
    Node,
    Param,
    RandomIndex,
    Select,
    Store,
    UnOp,
    Var,
)
from ..ir.patterns import Filter, Foreach, GroupBy, Map, PatternExpr, Reduce
from ..ir.types import ArrayType, ScalarType
from .shapes import SizeEnv, _array_key, eval_size


@dataclass(frozen=True)
class LinearForm:
    """An affine function of pattern indices, with conservative escape
    hatches for anything non-affine."""

    coeffs: Tuple[Tuple[str, float], ...] = ()
    const: float = 0.0
    opaque_deps: FrozenSet[str] = frozenset()
    has_random: bool = False

    @staticmethod
    def constant(value: float) -> "LinearForm":
        return LinearForm(const=value)

    @staticmethod
    def index(name: str) -> "LinearForm":
        return LinearForm(coeffs=((name, 1.0),))

    @staticmethod
    def opaque(deps: FrozenSet[str], random: bool = False) -> "LinearForm":
        return LinearForm(opaque_deps=deps, has_random=random)

    def coeff(self, name: str) -> float:
        for var, c in self.coeffs:
            if var == name:
                return c
        return 0.0

    @property
    def is_pure_constant(self) -> bool:
        return not self.coeffs and not self.opaque_deps and not self.has_random

    def depends_on(self, name: str) -> bool:
        """Does the value change when index ``name`` changes?"""
        return self.coeff(name) != 0.0 or name in self.opaque_deps

    def plus(self, other: "LinearForm") -> "LinearForm":
        merged = dict(self.coeffs)
        for var, c in other.coeffs:
            merged[var] = merged.get(var, 0.0) + c
        coeffs = tuple(
            (var, c) for var, c in sorted(merged.items()) if c != 0.0
        )
        return LinearForm(
            coeffs=coeffs,
            const=self.const + other.const,
            opaque_deps=self.opaque_deps | other.opaque_deps,
            has_random=self.has_random or other.has_random,
        )

    def minus(self, other: "LinearForm") -> "LinearForm":
        return self.plus(other.scaled(-1.0))

    def scaled(self, factor: float) -> "LinearForm":
        return LinearForm(
            coeffs=tuple((var, c * factor) for var, c in self.coeffs),
            const=self.const * factor,
            opaque_deps=self.opaque_deps,
            has_random=self.has_random,
        )

    def blurred(self) -> "LinearForm":
        """Collapse into a fully opaque form keeping only the dependencies."""
        deps = frozenset(var for var, _ in self.coeffs) | self.opaque_deps
        return LinearForm(opaque_deps=deps, has_random=self.has_random)


def index_vars_in(node: Node, index_names: FrozenSet[str]) -> FrozenSet[str]:
    """Index variables occurring anywhere under ``node``."""
    from ..ir.traversal import walk

    found = set()
    for sub in walk(node):
        if isinstance(sub, Var) and sub.name in index_names:
            found.add(sub.name)
        if isinstance(sub, RandomIndex):
            found.add("__random__")
    return frozenset(found)


def linear_form(
    expr: Expr,
    index_names: FrozenSet[str],
    env: SizeEnv,
    bindings: Optional[Dict[str, LinearForm]] = None,
) -> LinearForm:
    """Extract the affine form of an index expression.

    ``index_names`` are the pattern indices in scope; ``bindings`` carries
    the forms of non-inlined scalar let-bindings (e.g. a random row index
    drawn once per outer iteration); every other variable or parameter is
    resolved to a representative constant via ``env``.
    """
    if isinstance(expr, Const):
        return LinearForm.constant(float(expr.value))
    if isinstance(expr, Var):
        if expr.name in index_names:
            return LinearForm.index(expr.name)
        if bindings and expr.name in bindings:
            return bindings[expr.name]
        return LinearForm.constant(float(int(eval_size(expr, env))))
    if isinstance(expr, Param):
        return LinearForm.constant(float(int(eval_size(expr, env))))
    if isinstance(expr, Length):
        return LinearForm.constant(float(int(eval_size(expr, env))))
    if isinstance(expr, RandomIndex):
        # A fresh draw per enclosing iteration: arbitrary-but-fixed within
        # one index combination, unrelated across combinations.
        return LinearForm(opaque_deps=index_names, has_random=True)
    if isinstance(expr, Cast):
        return linear_form(expr.operand, index_names, env, bindings)
    if isinstance(expr, UnOp) and expr.op == "-":
        return linear_form(expr.operand, index_names, env, bindings).scaled(-1.0)
    if isinstance(expr, BinOp):
        lhs = linear_form(expr.lhs, index_names, env, bindings)
        rhs = linear_form(expr.rhs, index_names, env, bindings)
        if expr.op == "+":
            return lhs.plus(rhs)
        if expr.op == "-":
            return lhs.minus(rhs)
        if expr.op == "*":
            if lhs.is_pure_constant:
                return rhs.scaled(lhs.const)
            if rhs.is_pure_constant:
                return lhs.scaled(rhs.const)
            return lhs.blurred().plus(rhs.blurred()).blurred()
        if expr.op in ("//", "/", "%"):
            if lhs.is_pure_constant and rhs.is_pure_constant and rhs.const:
                if expr.op == "%":
                    return LinearForm.constant(lhs.const % rhs.const)
                return LinearForm.constant(lhs.const // rhs.const)
            return lhs.blurred().plus(rhs.blurred()).blurred()
        if expr.op in ("min", "max"):
            # Index clamping (stencil boundaries): away from the boundary
            # the clamp is the identity, so the non-constant side's affine
            # structure is what the bulk of accesses see.
            if lhs.is_pure_constant and not rhs.is_pure_constant:
                return rhs
            if rhs.is_pure_constant and not lhs.is_pure_constant:
                return lhs
            if lhs.is_pure_constant and rhs.is_pure_constant:
                value = (
                    min(lhs.const, rhs.const)
                    if expr.op == "min"
                    else max(lhs.const, rhs.const)
                )
                return LinearForm.constant(value)
            return lhs.blurred().plus(rhs.blurred()).blurred()
        return lhs.blurred().plus(rhs.blurred()).blurred()
    # Gathers, selects, calls: conservatively opaque in whatever indices
    # appear inside.
    deps = index_vars_in(expr, index_names)
    random = "__random__" in deps
    return LinearForm.opaque(deps - {"__random__"}, random=random)


@dataclass
class AccessSite:
    """One static memory access occurrence inside a nest."""

    array_key: str
    kind: str  # "read" or "write"
    elem_bytes: int
    #: One linear form per logical axis of the access.
    axis_forms: Tuple[LinearForm, ...]
    #: Representative extents per axis (for stride computation).
    shape: Tuple[int, ...]
    #: Enclosing patterns, outermost first; the access executes once per
    #: combination of their indices.
    pattern_stack: Tuple[PatternExpr, ...]
    #: Product of static probabilities of enclosing branches.
    branch_prob: float = 1.0
    #: True for preallocated intermediates whose physical layout the
    #: compiler may freely choose after the mapping decision (Section V-A).
    flexible_layout: bool = False
    #: True when this access is synthesized (pattern output write).
    synthetic: bool = False
    #: The original index expressions (None for synthesized sites); used
    #: by the trace validator to execute accesses concretely.
    index_exprs: Optional[Tuple[Expr, ...]] = None

    @property
    def level(self) -> int:
        return len(self.pattern_stack) - 1

    @property
    def index_names(self) -> Tuple[str, ...]:
        return tuple(p.index.name for p in self.pattern_stack)

    def row_major_strides(self) -> Tuple[int, ...]:
        """Element strides for the canonical row-major layout."""
        strides: List[int] = []
        acc = 1
        for extent in reversed(self.shape):
            strides.append(acc)
            acc *= max(1, extent)
        strides.reverse()
        return tuple(strides)

    def offset_form(self, strides: Optional[Sequence[int]] = None) -> LinearForm:
        """The linearized element-offset form under the given layout."""
        if strides is None:
            strides = self.row_major_strides()
        if len(strides) != len(self.axis_forms):
            raise AnalysisError(
                f"{len(strides)} strides for rank-{len(self.axis_forms)} access"
            )
        total = LinearForm.constant(0.0)
        for form, stride in zip(self.axis_forms, strides):
            total = total.plus(form.scaled(float(stride)))
        return total

    def sequential_levels(self) -> List[int]:
        """Levels whose index has unit stride in this access (row-major).

        These are the levels for which the paper adds the "assign dim x"
        soft constraint.
        """
        offset = self.offset_form()
        result = []
        for level, name in enumerate(self.index_names):
            if abs(offset.coeff(name)) == 1.0:
                result.append(level)
        return result

    def exec_count(self, env: SizeEnv) -> float:
        """How many times the access executes per kernel run."""
        count = self.branch_prob
        for pattern in self.pattern_stack:
            count *= max(1, int(eval_size(pattern.size, env)))
        return count

    def footprint_bytes(self, env: SizeEnv) -> float:
        """Distinct bytes this access can touch (cache-residency proxy).

        The product of the domain sizes of the levels the offset depends
        on, capped by the array's total size.
        """
        offset = self.offset_form()
        distinct = 1.0
        for level, name in enumerate(self.index_names):
            if offset.depends_on(name):
                distinct *= max(
                    1, int(eval_size(self.pattern_stack[level].size, env))
                )
        if offset.has_random:
            distinct = max(distinct, self.exec_count(env))
        array_elems = 1.0
        for extent in self.shape:
            array_elems *= max(1, extent)
        return min(distinct, array_elems) * self.elem_bytes


@dataclass(frozen=True)
class AllocationSite:
    """One dynamic allocation performed inside a pattern body.

    Without the preallocation optimization, every parallel iteration of the
    enclosing patterns performs one device-side malloc (Section V-A).
    """

    array_key: str
    elem_bytes: int
    #: Elements allocated per call (representative).
    elems_per_alloc: int
    #: Enclosing patterns at the allocation point, outermost first.
    pattern_stack: Tuple[PatternExpr, ...]

    def alloc_count(self, env: SizeEnv) -> int:
        count = 1
        for pattern in self.pattern_stack:
            count *= max(1, int(eval_size(pattern.size, env)))
        return count


@dataclass
class AccessSummary:
    """All access and allocation sites of one kernel nest."""

    sites: List[AccessSite] = field(default_factory=list)
    allocs: List[AllocationSite] = field(default_factory=list)

    def reads(self) -> List[AccessSite]:
        return [s for s in self.sites if s.kind == "read"]

    def writes(self) -> List[AccessSite]:
        return [s for s in self.sites if s.kind == "write"]

    def for_array(self, key: str) -> List[AccessSite]:
        return [s for s in self.sites if s.array_key == key]

    def flexible_arrays(self) -> List[str]:
        """Array keys whose physical layout the compiler may choose."""
        seen: List[str] = []
        for s in self.sites:
            if s.flexible_layout and s.array_key not in seen:
                seen.append(s.array_key)
        return seen


@dataclass(frozen=True)
class _Intermediate:
    """Bookkeeping for an array-valued let binding (a materialized
    inner-pattern result or explicit Alloc)."""

    #: Index names of the patterns enclosing the binding; the preallocated
    #: physical array gains one leading axis per enclosing index.
    outer_axes: Tuple[str, ...]
    #: Full physical shape: enclosing sizes followed by the logical shape.
    shape: Tuple[int, ...]
    flexible: bool


class _Collector:
    """Walks a nest gathering :class:`AccessSite` records."""

    def __init__(self, env: SizeEnv):
        self.env = env
        self.sites: List[AccessSite] = []
        self.allocs: List[AllocationSite] = []
        self.intermediates: Dict[str, _Intermediate] = {}
        #: Forms of non-inlined scalar let-bindings (random draws etc.).
        self.scalar_forms: Dict[str, LinearForm] = {}

    # -- entry ----------------------------------------------------------

    def collect(self, root: PatternExpr) -> AccessSummary:
        self._visit_pattern(root, stack=(), prob=1.0)
        self._synthesize_output(root)
        return AccessSummary(self.sites, self.allocs)

    # -- traversal --------------------------------------------------------

    def _visit_pattern(
        self, pattern: PatternExpr, stack: Tuple[PatternExpr, ...], prob: float
    ) -> None:
        inner_stack = stack + (pattern,)
        if isinstance(pattern, Reduce) and pattern.combine is not None:
            self._visit(pattern.combine[2], inner_stack, prob)
        for node in pattern.body_nodes():
            self._visit(node, inner_stack, prob)

    def _visit(self, node: Node, stack: Tuple[PatternExpr, ...], prob: float) -> None:
        if isinstance(node, PatternExpr):
            self._visit_pattern(node, stack, prob)
            return
        if isinstance(node, ArrayRead):
            self._record(node.array, node.indices, "read", stack, prob)
            self._visit(node.array, stack, prob)
            for idx in node.indices:
                self._visit(idx, stack, prob)
            return
        if isinstance(node, Store):
            self._record(node.array, node.indices, "write", stack, prob)
            for idx in node.indices:
                self._visit(idx, stack, prob)
            self._visit(node.value, stack, prob)
            return
        if isinstance(node, Select):
            self._visit(node.cond, stack, prob)
            self._visit(node.if_true, stack, prob * node.prob)
            self._visit(node.if_false, stack, prob * (1.0 - node.prob))
            return
        if isinstance(node, If):
            self._visit(node.cond, stack, prob)
            for stmt in node.then:
                self._visit(stmt, stack, prob * node.prob)
            for stmt in node.otherwise:
                self._visit(stmt, stack, prob * (1.0 - node.prob))
            return
        if isinstance(node, Block):
            for stmt in node.stmts:
                if isinstance(stmt, Bind):
                    self._register_bind(stmt, stack)
                    self._visit(stmt.value, stack, prob)
                else:
                    self._visit(stmt, stack, prob)
            self._visit(node.result, stack, prob)
            return
        if isinstance(node, Bind):
            self._register_bind(node, stack)
            self._visit(node.value, stack, prob)
            return
        for child in node.children():
            self._visit(child, stack, prob)

    def _register_bind(self, bind: Bind, stack: Tuple[PatternExpr, ...]) -> None:
        """Record array-valued bindings as flexible-layout intermediates.

        The preallocated physical array carries one leading axis per
        enclosing pattern index (Figure 11), and one allocation site is
        recorded for the malloc-overhead model.  Scalar bindings that were
        not inlined (they contain randomness) get their form tracked so
        later index expressions resolve them correctly.
        """
        value = bind.value
        if isinstance(value.ty, ScalarType):
            index_names = frozenset(p.index.name for p in stack)
            self.scalar_forms[bind.var.name] = linear_form(
                value, index_names, self.env, self.scalar_forms
            )
            return
        outer_axes = tuple(p.index.name for p in stack)
        outer_shape = tuple(
            max(1, int(eval_size(p.size, self.env))) for p in stack
        )
        if isinstance(value, PatternExpr) and isinstance(value.ty, ArrayType):
            logical = self._pattern_output_shape(value)
        elif isinstance(value, Alloc):
            logical = tuple(
                max(1, int(eval_size(s, self.env))) for s in value.shape
            )
        else:
            return
        elem_ty = value.ty.elem if isinstance(value.ty, ArrayType) else None
        elem_bytes = elem_ty.size_bytes if isinstance(elem_ty, ScalarType) else 8
        self.intermediates[bind.var.name] = _Intermediate(
            outer_axes=outer_axes,
            shape=outer_shape + logical,
            flexible=True,
        )
        if stack:
            elems = 1
            for extent in logical:
                elems *= extent
            self.allocs.append(
                AllocationSite(
                    array_key=bind.var.name,
                    elem_bytes=elem_bytes,
                    elems_per_alloc=elems,
                    pattern_stack=stack,
                )
            )
        if isinstance(value, PatternExpr):
            # The materialized inner pattern writes its output once per
            # element; model that traffic explicitly.
            index_names = frozenset(p.index.name for p in stack) | {
                value.index.name
            }
            spine: List[PatternExpr] = [value]
            body = value.body_nodes()[0] if value.body_nodes() else None
            while isinstance(body, Map):
                spine.append(body)
                body = body.body
            axis_forms = tuple(
                LinearForm.index(name) for name in outer_axes
            ) + tuple(LinearForm.index(p.index.name) for p in spine)
            self.sites.append(
                AccessSite(
                    array_key=bind.var.name,
                    kind="write",
                    elem_bytes=elem_bytes,
                    axis_forms=axis_forms,
                    shape=self.intermediates[bind.var.name].shape,
                    pattern_stack=stack + tuple(spine),
                    branch_prob=1.0,
                    flexible_layout=True,
                    synthetic=True,
                )
            )

    def _pattern_output_shape(self, pattern: PatternExpr) -> Tuple[int, ...]:
        dims = [max(1, int(eval_size(pattern.size, self.env)))]
        body = pattern.body_nodes()[0] if pattern.body_nodes() else None
        while isinstance(body, Map):
            dims.append(max(1, int(eval_size(body.size, self.env))))
            body = body.body
        return tuple(dims)

    # -- recording --------------------------------------------------------

    def _record(
        self,
        array: Expr,
        indices: Sequence[Expr],
        kind: str,
        stack: Tuple[PatternExpr, ...],
        prob: float,
    ) -> None:
        if not stack:
            return  # accesses outside any pattern are host-side
        key = _array_key(array) or f"<anon:{type(array).__name__}>"
        index_names = frozenset(p.index.name for p in stack)
        axis_forms = tuple(
            linear_form(idx, index_names, self.env, self.scalar_forms)
            for idx in indices
        )
        elem_ty = array.ty.elem if isinstance(array.ty, ArrayType) else None
        elem_bytes = elem_ty.size_bytes if isinstance(elem_ty, ScalarType) else 8
        # Loop-invariant hoisting: an access whose indices do not involve
        # the innermost pattern's index executes once per iteration of the
        # outermost level it *does* depend on (any real compiler hoists
        # it), so truncate the stack accordingly.
        if not any(form.has_random for form in axis_forms):
            deps = set()
            for form in axis_forms:
                deps.update(name for name, _ in form.coeffs)
                deps.update(form.opaque_deps)
            while stack and stack[-1].index.name not in deps:
                stack = stack[:-1]
            if not stack:
                return  # a kernel-invariant scalar read; negligible
        flexible = False
        trace_indices: Tuple[Expr, ...] = tuple(indices)
        if key in self.intermediates:
            # Accesses to a preallocated intermediate gain the enclosing
            # indices as leading physical axes (Figure 11).
            inter = self.intermediates[key]
            axis_forms = tuple(
                LinearForm.index(name) if name in index_names
                else LinearForm.constant(0.0)
                for name in inter.outer_axes
            ) + axis_forms
            from ..ir.types import I64

            trace_indices = tuple(
                Var(name, I64) if name in index_names else Const(0)
                for name in inter.outer_axes
            ) + trace_indices
            shape: Tuple[int, ...] = inter.shape
            flexible = inter.flexible
        else:
            shape = self._shape_for(key, array, len(indices))
        self.sites.append(
            AccessSite(
                array_key=key,
                kind=kind,
                elem_bytes=elem_bytes,
                axis_forms=axis_forms,
                shape=shape,
                pattern_stack=stack,
                branch_prob=prob,
                flexible_layout=flexible,
                index_exprs=trace_indices,
            )
        )

    def _shape_for(self, key: str, array: Expr, rank: int) -> Tuple[int, ...]:
        if key in self.env.array_shapes:
            shape = self.env.array_shapes[key]
            if len(shape) == rank:
                return tuple(int(s) for s in shape)
        return tuple(self.env.default for _ in range(rank))

    # -- synthetic output access -----------------------------------------

    def _synthesize_output(self, root: PatternExpr) -> None:
        """Model the kernel's output write as an access site.

        Walking the spine of result-position patterns: each Map level
        contributes its index as an output axis; a Reduce ends indexing
        (one value per enclosing combination); Filter/GroupBy write
        compacted output sequential in their own index.
        """
        indices: List[PatternExpr] = []
        stack: List[PatternExpr] = []
        node: Optional[Node] = root
        elem_bytes = 8
        while isinstance(node, PatternExpr):
            stack.append(node)
            if isinstance(node, (Filter, GroupBy)):
                indices.append(node)
                body = node.value if not isinstance(node, GroupBy) else node.value
                if isinstance(body.ty, ScalarType):
                    elem_bytes = body.ty.size_bytes
                break
            if isinstance(node, Reduce):
                if isinstance(node.body.ty, ScalarType):
                    elem_bytes = node.body.ty.size_bytes
                break
            if isinstance(node, Foreach):
                # Explicit stores already recorded; no synthetic output.
                return
            # Map / ZipWith
            indices.append(node)
            body = node.body
            if isinstance(body, Block):
                body = body.result
            if isinstance(body.ty, ScalarType):
                elem_bytes = body.ty.size_bytes
            node = body if isinstance(body, PatternExpr) else None

        if not indices:
            indices = stack[:1]
        axis_forms = tuple(LinearForm.index(p.index.name) for p in indices)
        shape = tuple(
            max(1, int(eval_size(p.size, self.env))) for p in indices
        )
        self.sites.append(
            AccessSite(
                array_key="__out__",
                kind="write",
                elem_bytes=elem_bytes,
                axis_forms=axis_forms,
                shape=shape,
                pattern_stack=tuple(stack[: len(indices)]) or (root,),
                branch_prob=1.0,
                flexible_layout=False,
                synthetic=True,
            )
        )


def inline_scalar_binds(root: PatternExpr) -> PatternExpr:
    """Inline pure scalar let-bindings for analysis purposes.

    Index arithmetic routed through a ``Bind`` (``base = i*C; m[base+j]``)
    would otherwise lose its affine structure.  Bindings whose value
    contains patterns, allocations, stores, or randomness are kept.
    """
    from ..ir.rewrite import rewrite, substitute_var
    from ..ir.traversal import walk as walk_nodes

    def is_pure_scalar(expr: Expr) -> bool:
        if not isinstance(expr.ty, ScalarType):
            return False
        for sub in walk_nodes(expr):
            if isinstance(sub, (PatternExpr, Alloc, Store, RandomIndex)):
                return False
        return True

    def transform(node: Node) -> Optional[Node]:
        if not isinstance(node, Block):
            return None
        kept: List = []
        result: Node = node.result
        changed = False
        pending = list(node.stmts)
        while pending:
            stmt = pending.pop(0)
            if isinstance(stmt, Bind) and is_pure_scalar(stmt.value):
                changed = True
                replacement = stmt.value
                pending = [
                    _subst_stmt(s, stmt.var.name, replacement) for s in pending
                ]
                result = substitute_var(result, stmt.var.name, replacement)
            else:
                kept.append(stmt)
        if not changed:
            return None
        if not kept:
            return result
        return Block(tuple(kept), result)  # type: ignore[arg-type]

    def _subst_stmt(stmt, name, replacement):
        return substitute_var(stmt, name, replacement)

    return rewrite(root, transform)  # type: ignore[return-value]


def collect_accesses(
    root: PatternExpr, env: Optional[SizeEnv] = None, inline: bool = True
) -> AccessSummary:
    """Collect every access site of a nest.

    By default scalar let-bindings are inlined first so index arithmetic
    stays affine; pass ``inline=False`` when the caller has already
    canonicalized the tree (and needs node identities to line up with other
    analyses over the same tree).
    """
    if env is None:
        env = SizeEnv()
    tree = inline_scalar_binds(root) if inline else root
    return _Collector(env).collect(tree)
