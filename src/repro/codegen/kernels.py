"""CUDA kernel generation from a nest plus a mapping decision.

The generator owns the per-pattern templates of Section IV-E: the code
structure changes with the mapping (sequential loop vs strided block loop vs
split regions; local accumulation vs shared-memory tree vs partial buffers
with a combiner kernel), not just the launch parameters.

Template selection per level span type:

========= =====================================================
Seq       ``for (i = 0; i < n; i++)`` inside each thread
Span(n)   ``for (s = 0; s < n; s++) i = blockIdx*blockDim*n + s*blockDim + threadIdx``
Span(all) ``for (i = threadIdx; i < n; i += blockDim)`` (single block per dim)
Split(k)  Span(all) over a contiguous 1/k region (+ combiner kernel on a Reduce)
========= =====================================================

Reduce levels parallelized with Span(all)/Split emit the classic
shared-memory tree (cf. the paper's Figure 9); Split additionally writes
per-region partials and a combiner kernel finishes the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.analyzer import KernelAnalysis
from ..analysis.mapping import Dim, LevelMapping, Mapping, Seq, Span, SpanAll, Split
from ..analysis.shapes import eval_size
from ..errors import CodegenError
from ..gpusim.cost import LaunchPlan
from ..ir.expr import Alloc, Bind, Block, Expr, ExprStmt, If, RandomIndex, Stmt, Store
from ..ir.functions import FnCall
from ..ir.patterns import (
    Filter,
    Foreach,
    GroupBy,
    Map,
    PatternExpr,
    Program,
    Reduce,
)
from ..ir.traversal import find_instances
from ..ir.types import ArrayType, ScalarType
from .exprs import ArrayInfo, CodegenContext, array_name, array_ref, c_type, lower_expr
from .writer import SourceWriter

_DIM_SUFFIX = {Dim.X: "x", Dim.Y: "y", Dim.Z: "z"}

_REDUCE_C_OPS: Dict[str, Callable[[str, str], str]] = {
    "+": lambda a, b: f"{a} + {b}",
    "*": lambda a, b: f"{a} * {b}",
    "min": lambda a, b: f"min({a}, {b})",
    "max": lambda a, b: f"max({a}, {b})",
}

_REDUCE_IDENTITY = {"+": "0", "*": "1"}


@dataclass
class LaunchConfig:
    """Grid/block dimensions for one launch."""

    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]


@dataclass
class CompiledKernel:
    """A generated CUDA kernel plus everything needed to launch it."""

    name: str
    source: str
    mapping: Mapping
    analysis: KernelAnalysis
    #: (C declaration, name) per kernel parameter, in signature order.
    params: List[Tuple[str, str]]
    #: Source of the combiner kernel, when a split Reduce needs one.
    combiner_source: str = ""
    #: Symbolic element strides per logical axis of each preallocated
    #: buffer, keyed by the binding's array key.
    buffer_strides: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def launch_config(self, sizes: Sequence[int]) -> LaunchConfig:
        """Grid/block geometry for the given runtime level sizes."""
        mapping = self.mapping
        blocks = mapping.blocks_per_level(list(sizes))
        grid = [1, 1, 1]
        block = [1, 1, 1]
        for level, lm in enumerate(mapping.levels):
            if not lm.parallel:
                continue
            axis = min(int(lm.dim), 2)
            grid[axis] *= blocks[level]
            block[axis] *= lm.block_size
        return LaunchConfig(grid=tuple(grid), block=tuple(block))

    @property
    def full_source(self) -> str:
        parts = [self.source]
        if self.combiner_source:
            parts.append(self.combiner_source)
        return "\n".join(parts)


class KernelGenerator:
    """Generates one ``__global__`` kernel for a nest under a mapping and plan."""

    def __init__(
        self,
        analysis: KernelAnalysis,
        mapping: Mapping,
        program: Program,
        kernel_name: str = "kernel",
        plan: Optional[LaunchPlan] = None,
    ):
        self.analysis = analysis
        self.mapping = mapping
        self.program = program
        self.kernel_name = kernel_name
        #: The launch plan the cost model prices; it decides preallocation
        #: and each preallocated buffer's layout.
        self.plan = plan if plan is not None else LaunchPlan(prealloc=True)
        self.ctx = CodegenContext()
        self.w = SourceWriter()
        self.params: List[Tuple[str, str]] = []
        self._smem_counter = 0
        self.combiner_source = ""
        self.buffer_strides: Dict[str, Tuple[str, ...]] = {}

    # -- public ----------------------------------------------------------

    def generate(self) -> CompiledKernel:
        self._register_program_arrays()
        out_info = self._register_output()
        self._collect_params(out_info)

        body = SourceWriter()
        body._depth = 1
        self.w = body
        root = self.analysis.root
        self._emit_pattern(
            root,
            level=0,
            dest=self._write_out,
            out_indices=[],
        )

        # The body appends the parameters its templates need (buffers,
        # partials, counters), so the signature is printed last.
        sig = ", ".join(f"{decl} {name}" for decl, name in self.params)
        header = SourceWriter()
        header.line("// Mapping decision:")
        for level, lm in enumerate(self.mapping.levels):
            header.line(f"//   Level {level}: {lm}")
        header.open(f"__global__ void {self.kernel_name}({sig})")

        source = header.text() + body.text() + "}\n"
        return CompiledKernel(
            name=self.kernel_name,
            source=source,
            mapping=self.mapping,
            analysis=self.analysis,
            params=self.params,
            combiner_source=self.combiner_source,
            buffer_strides=self.buffer_strides,
        )

    # -- setup -----------------------------------------------------------

    def _register_program_arrays(self) -> None:
        for param in self.program.params:
            if not isinstance(param.ty, ArrayType):
                continue
            shape_exprs = self.program.array_shapes.get(param.name)
            if shape_exprs is None:
                strides: Tuple[str, ...] = tuple(
                    "1" for _ in range(param.ty.rank)
                )
            else:
                strides = _row_major_strides(
                    [lower_expr(e, self.ctx) for e in shape_exprs]
                )
            self.ctx.arrays[param.name] = ArrayInfo(param.name, strides)

    def _register_output(self) -> ArrayInfo:
        info = ArrayInfo("out", self._output_strides())
        self.ctx.arrays["__out__"] = info
        return info

    def _output_strides(self) -> Tuple[str, ...]:
        # Output axes follow the spine of Map levels (synthetic access);
        # their extents index symbolically, like the input arrays'.
        spine = [
            s for s in self.analysis.accesses.sites if s.array_key == "__out__"
        ]
        if not spine:
            return ("1",)
        rank = len(spine[0].axis_forms)
        return _row_major_strides(
            [
                lower_expr(p.size, self.ctx)
                for p in spine[0].pattern_stack[:rank]
            ]
        )

    def _collect_params(self, out_info: ArrayInfo) -> None:
        written = {
            array_name(store.array)
            for store in find_instances(self.analysis.root, Store)
        }

        def pointer(elem, name: str) -> str:
            const = "" if name in written else "const "
            return f"{const}{c_type(elem)}*"

        for param in self.program.params:
            if isinstance(param.ty, ArrayType):
                self.params.append(
                    (pointer(param.ty.elem, param.name), param.name)
                )
            elif isinstance(param.ty, ScalarType):
                self.params.append((c_type(param.ty), param.name))
            else:
                # Struct params are flattened to per-field arguments.
                for fname, fty in param.ty.fields:
                    flat = f"{param.name}_{fname}"
                    if isinstance(fty, ArrayType):
                        self.params.append((pointer(fty.elem, flat), flat))
                        self.ctx.arrays[flat] = ArrayInfo(flat, ("1",))
                    else:
                        self.params.append((c_type(fty), flat))
        out_ty = self._output_elem_type()
        self.params.append((f"{out_ty}*", "out"))

    def _output_elem_type(self) -> str:
        node: Expr = self.analysis.root
        while isinstance(node, PatternExpr):
            body = node.body_nodes()[0] if node.body_nodes() else None
            if isinstance(node, Reduce):
                return c_type(node.body.ty)
            if isinstance(node, (Filter, GroupBy)):
                return c_type(node.value.ty) if isinstance(
                    node.value.ty, ScalarType
                ) else "double"
            if isinstance(node, Foreach):
                break  # explicit stores; the out buffer is unused
            if isinstance(body, Block):
                body = body.result
            if isinstance(body, PatternExpr):
                node = body
                continue
            if isinstance(body, Expr) and isinstance(body.ty, ScalarType):
                return c_type(body.ty)
            break
        return "double"

    # -- destinations ------------------------------------------------------

    def _out_offset(self, indices: List[str]) -> str:
        """The linear ``out`` offset of the element at ``indices``."""
        if not indices:
            return "0"
        strides = self.ctx.arrays["__out__"].strides[-len(indices):]
        return " + ".join(
            idx if stride == "1" else f"{idx} * {stride}"
            for idx, stride in zip(indices, strides)
        )

    def _write_out(self, value_src: str, indices: List[str]) -> None:
        """The root pattern's destination: one element of ``out``."""
        self.w.line(f"out[{self._out_offset(indices)}] = {value_src};")

    # -- pattern emission ---------------------------------------------------

    def _emit_scalar_value(self, expr: Expr, level: int) -> str:
        """Lower a scalar expression, hoisting embedded pattern values.

        A pattern appearing mid-expression (e.g. PageRank's
        ``c + damp * reduce(...)``) is emitted first into a local variable;
        the surrounding expression then references that variable.
        """
        for pattern in _direct_patterns(expr):
            tmp = f"pv{self._smem_counter}"
            self._smem_counter += 1
            decl = c_type(pattern.ty)
            self.w.line(f"{decl} {tmp} = 0;")

            def assign(value_src: str, indices: List[str], tmp=tmp) -> None:
                self.w.line(f"{tmp} = {value_src};")

            self._emit_pattern(pattern, level + 1, assign, [], guard_dest=False)
            self.ctx.substitutions[pattern] = tmp
        return lower_expr(expr, self.ctx)

    def _emit_pattern(
        self,
        pattern: PatternExpr,
        level: int,
        dest: Callable[[str, List[str]], None],
        out_indices: List[str],
        guard_dest: bool = True,
    ) -> None:
        lm = self.mapping.level(level)
        size_src = lower_expr(pattern.size, self.ctx)
        idx = pattern.index.name

        if isinstance(pattern, Reduce):
            self._emit_reduce(
                pattern, level, lm, size_src, dest, out_indices, guard_dest
            )
            return
        if isinstance(pattern, Filter):
            self._emit_filter(pattern, level, lm, size_src)
            return
        if isinstance(pattern, GroupBy):
            self._emit_groupby(pattern, level, lm, size_src)
            return

        # Map / ZipWith / Foreach share iteration structure.
        self._open_index_loop(lm, idx, size_src)
        if isinstance(pattern, Foreach):
            for stmt in pattern.body:
                self._emit_stmt(stmt, level)
        else:
            self._emit_map_body(pattern, level, dest, out_indices + [idx])
        self._close_index_loop(lm)

    def _emit_map_body(
        self,
        pattern: Map,
        level: int,
        dest: Callable[[str, List[str]], None],
        out_indices: List[str],
    ) -> None:
        body = pattern.body
        if isinstance(body, Block):
            for stmt in body.stmts:
                self._emit_stmt(stmt, level)
            body = body.result
        if isinstance(body, PatternExpr):
            self._emit_pattern(body, level + 1, dest, out_indices)
            return
        value_src = self._emit_scalar_value(body, level)
        guards = self._inner_parallel_guards(level)
        if guards:
            self.w.open(f"if ({' && '.join(guards)})")
            dest(value_src, out_indices)
            self.w.close()
        else:
            dest(value_src, out_indices)

    # -- statements inside bodies ------------------------------------------

    def _emit_stmt(self, stmt: Stmt, level: int) -> None:
        if isinstance(stmt, Bind):
            self._emit_bind(stmt, level)
            return
        if isinstance(stmt, Store):
            target = array_ref(stmt.array, stmt.indices, self.ctx)
            value = lower_expr(stmt.value, self.ctx)
            guards = self._inner_parallel_guards(level)
            if guards:
                self.w.line(f"if ({' && '.join(guards)}) {target} = {value};")
            else:
                self.w.line(f"{target} = {value};")
            return
        if isinstance(stmt, If):
            self.w.open(f"if ({lower_expr(stmt.cond, self.ctx)})")
            for inner in stmt.then:
                self._emit_stmt(inner, level)
            if stmt.otherwise:
                self.w.close(" else {")
                self.w._depth += 1
                for inner in stmt.otherwise:
                    self._emit_stmt(inner, level)
            self.w.close()
            return
        if isinstance(stmt, ExprStmt):
            if isinstance(stmt.expr, PatternExpr):
                self._emit_pattern(
                    stmt.expr, level + 1, lambda v, i: None, []
                )
            else:
                self.w.line(f"(void)({lower_expr(stmt.expr, self.ctx)});")
            return
        raise CodegenError(f"cannot emit statement {type(stmt).__name__}")

    def _emit_bind(self, stmt: Bind, level: int) -> None:
        value = stmt.value
        name = stmt.var.name
        if isinstance(value, PatternExpr) and isinstance(value.ty, ArrayType):
            self._emit_materialized(name, value, level)
            return
        if isinstance(value, Alloc):
            self._emit_alloc(name, value, level)
            return
        decl = c_type(value.ty)
        self.w.line(f"{decl} {name} = {self._emit_scalar_value(value, level)};")

    def _emit_materialized(
        self, name: str, pattern: PatternExpr, level: int
    ) -> None:
        """A let-bound inner pattern: write its output into a buffer."""
        elem = c_type(pattern.ty.elem)  # type: ignore[union-attr]
        info = self._bind_buffer(name, elem, [pattern.size], level)

        def temp_dest(value_src: str, indices: List[str]) -> None:
            inner_idx = indices[-1] if indices else "0"
            stride = info.strides[-1] if info.strides else "1"
            term = inner_idx if stride == "1" else f"{inner_idx} * {stride}"
            offset = f"{info.offset} + {term}" if info.offset != "0" else term
            self.w.line(f"{info.c_name}[{offset}] = {value_src};")

        self._emit_pattern(pattern, level + 1, temp_dest, [])

    def _bind_buffer(
        self, name: str, elem: str, extents: Sequence[Expr], level: int
    ) -> ArrayInfo:
        """Back an array-valued binding with a buffer, as the plan says.

        With preallocation the buffer is a kernel parameter sized for the
        whole outer domain, and this iteration's region is addressed by
        offset and the plan's strides (Figure 11); without it, a
        device-side malloc is emitted (the slow path Figure 16 measures).
        """
        buf = f"{name}_buf"
        if self.plan.prealloc:
            if not any(p_name == buf for _, p_name in self.params):
                self.params.append((f"{elem}*", buf))
            outer = self._enclosing_patterns(level)
            strides = self._buffer_strides(
                name, [p.size for p in outer] + list(extents)
            )
            self.buffer_strides[name] = strides
            offset = " + ".join(
                p.index.name if stride == "1" else f"{p.index.name} * {stride}"
                for p, stride in zip(outer, strides)
            )
            info = ArrayInfo(buf, strides[len(outer):], offset=offset or "0")
        else:
            size_src = " * ".join(lower_expr(e, self.ctx) for e in extents)
            self.w.line(
                f"{elem}* {buf} = ({elem}*)malloc(sizeof({elem}) * {size_src});"
            )
            info = ArrayInfo(buf, ("1",))
        self.ctx.arrays[name] = info
        return info

    def _buffer_strides(
        self, key: str, extents: Sequence[Expr]
    ) -> Tuple[str, ...]:
        """Symbolic strides of a preallocated buffer in the plan's layout.

        The plan holds the strides the cost model priced, at the compile's
        sizes.  Ordering the axes by them (a longer axis outside an equal
        stride) and multiplying symbolic extents keeps the kernel valid at
        launch-time sizes.  A key the plan does not list is row-major.
        """
        order = list(range(len(extents)))
        planned = self.plan.strides_for(key)
        if planned is not None:
            if len(planned) != len(extents):
                raise CodegenError(
                    f"plan lays out {key!r} with {len(planned)} axes, "
                    f"the kernel indexes {len(extents)}"
                )
            sizes = [int(eval_size(e, self.analysis.env)) for e in extents]
            order.sort(key=lambda axis: (-planned[axis], -sizes[axis]))
        physical = _row_major_strides(
            [lower_expr(extents[axis], self.ctx) for axis in order]
        )
        return tuple(physical[order.index(axis)] for axis in range(len(order)))

    def _emit_alloc(self, name: str, alloc: Alloc, level: int) -> None:
        self._bind_buffer(name, c_type(alloc.elem), alloc.shape, level)

    # -- reduce ------------------------------------------------------------

    def _emit_reduce(
        self,
        pattern: Reduce,
        level: int,
        lm: LevelMapping,
        size_src: str,
        dest: Callable[[str, List[str]], None],
        out_indices: List[str],
        guard_dest: bool = True,
    ) -> None:
        elem = c_type(pattern.body.ty)
        acc = f"acc_{pattern.index.name}"
        identity = self._identity_for(pattern, elem)
        self.w.line(f"{elem} {acc} = {identity};")

        self._open_index_loop(lm, pattern.index.name, size_src)
        body = pattern.body
        if isinstance(body, Block):
            for stmt in body.stmts:
                self._emit_stmt(stmt, level)
            body = body.result
        if isinstance(body, PatternExpr):
            # Reduce over an inner pattern's scalar result.
            inner_val = f"val_{pattern.index.name}"
            self.w.line(f"{elem} {inner_val} = {identity};")

            def inner_dest(value_src: str, indices: List[str]) -> None:
                self.w.line(f"{inner_val} = {value_src};")

            self._emit_pattern(body, level + 1, inner_dest, [])
            value_src = inner_val
        else:
            value_src = self._emit_scalar_value(body, level)
        self.w.line(f"{acc} = {self._combine(pattern, acc, value_src)};")
        self._close_index_loop(lm)

        if isinstance(lm.span, (SpanAll, Split)) and lm.parallel:
            self._emit_block_tree_reduce(
                pattern, lm, acc, dest, out_indices, guard_dest
            )
        else:
            dest(acc, out_indices)

    def _emit_block_tree_reduce(
        self,
        pattern: Reduce,
        lm: LevelMapping,
        acc: str,
        dest: Callable[[str, List[str]], None],
        out_indices: List[str],
        guard_dest: bool = True,
    ) -> None:
        """The shared-memory tree of Figure 9, generalized to any dim."""
        elem = c_type(pattern.body.ty)
        tid = self._thread_coord(lm)
        bdim = self._block_dim(lm)
        smem = f"smem{self._smem_counter}"
        self._smem_counter += 1
        tpb = self.mapping.threads_per_block()
        self.w.line(f"__shared__ {elem} {smem}[{tpb}];")
        lin = "threadIdx.x + threadIdx.y * blockDim.x + threadIdx.z * blockDim.x * blockDim.y"
        self.w.line(f"int lin_{smem} = {lin};")
        self.w.line(f"{smem}[lin_{smem}] = {acc};")
        self.w.line("__syncthreads();")
        stride = self._dim_linear_stride(lm.dim)
        self.w.open(
            f"for (int off = {bdim} / 2; off > 0; off >>= 1)"
        )
        self.w.open(f"if ({tid} < off)")
        self.w.line(
            f"{smem}[lin_{smem}] = "
            f"{self._combine(pattern, f'{smem}[lin_{smem}]', f'{smem}[lin_{smem} + off * {stride}]')};"
        )
        self.w.close()
        self.w.line("__syncthreads();")
        self.w.close()
        group_base = f"{smem}[lin_{smem} - {tid} * {stride}]"
        if isinstance(lm.span, Split):
            # Each split region writes one partial, combined by a second
            # kernel launched afterwards.
            if not any(name == "partials" for _, name in self.params):
                self.params.append((f"{elem}*", "partials"))
            # The slot the combiner reads for out[i] is i * k + block.
            out_offset = self._out_offset(out_indices)
            size_src = lower_expr(pattern.size, self.ctx)
            extent = self._grid_extent(lm, size_src)
            bid = self._block_coord(lm, size_src)
            self.w.open(f"if ({tid} == 0)")
            self.w.line(
                f"partials[({out_offset}) * {extent} + {bid}] = {group_base};"
            )
            self.w.close()
            self._emit_combiner(pattern, elem)
        elif guard_dest:
            self.w.open(f"if ({tid} == 0)")
            dest(group_base, out_indices)
            self.w.close()
        else:
            # Every thread reads its group's total (valid after the final
            # __syncthreads); used when the reduce value feeds a larger
            # expression all threads evaluate.
            dest(group_base, out_indices)

    def _emit_combiner(self, pattern: Reduce, elem: str) -> None:
        w = SourceWriter()
        w.open(
            f"__global__ void {self.kernel_name}_combine("
            f"const {elem}* partials, {elem}* out, int n_out, int k)"
        )
        w.line("int i = blockIdx.x * blockDim.x + threadIdx.x;")
        w.line("if (i >= n_out) return;")
        w.line(f"{elem} acc = {self._identity_for(pattern, elem)};")
        w.open("for (int j = 0; j < k; j++)")
        w.line(f"acc = {self._combine(pattern, 'acc', 'partials[i * k + j]')};")
        w.close()
        w.line("out[i] = acc;")
        w.close()
        self.combiner_source = w.text()

    def _identity_for(self, pattern: Reduce, elem: str) -> str:
        if pattern.op == "custom":
            return "0"
        if pattern.op in ("min", "max"):
            bound = "DBL_MAX" if elem == "double" else "FLT_MAX"
            return bound if pattern.op == "min" else f"-{bound}"
        return _REDUCE_IDENTITY[pattern.op]

    def _combine(self, pattern: Reduce, a: str, b: str) -> str:
        if pattern.op == "custom":
            lhs, rhs, expr = pattern.combine  # type: ignore[misc]
            saved = dict(self.ctx.renames)
            self.ctx.renames[lhs.name] = a
            self.ctx.renames[rhs.name] = b
            result = lower_expr(expr, self.ctx)
            self.ctx.renames = saved
            return result
        return _REDUCE_C_OPS[pattern.op](a, b)

    # -- filter / groupBy ----------------------------------------------------

    def _emit_filter(
        self, pattern: Filter, level: int, lm: LevelMapping, size_src: str
    ) -> None:
        """Atomic compaction (order-relaxed; see DESIGN.md non-goals)."""
        if not any(name == "out_count" for _, name in self.params):
            self.params.append(("int*", "out_count"))
        self._open_index_loop(lm, pattern.index.name, size_src)
        pred = lower_expr(pattern.pred, self.ctx)
        value = lower_expr(pattern.value, self.ctx)
        self.w.open(f"if ({pred})")
        self.w.line("int pos = atomicAdd(out_count, 1);")
        self.w.line(f"out[pos] = {value};")
        self.w.close()
        self._close_index_loop(lm)

    def _emit_groupby(
        self, pattern: GroupBy, level: int, lm: LevelMapping, size_src: str
    ) -> None:
        """Atomic bucket scatter with a bounded key space."""
        for decl, name in (("int*", "group_counts"), ("int", "max_per_group")):
            if not any(n == name for _, n in self.params):
                self.params.append((decl, name))
        self._open_index_loop(lm, pattern.index.name, size_src)
        key = lower_expr(pattern.key, self.ctx)
        value = lower_expr(pattern.value, self.ctx)
        self.w.line(f"int k = (int)({key});")
        self.w.line("int pos = atomicAdd(&group_counts[k], 1);")
        self.w.line(f"out[k * max_per_group + pos] = {value};")
        self._close_index_loop(lm)

    # -- index loops ---------------------------------------------------------

    def _open_index_loop(self, lm: LevelMapping, idx: str, size_src: str) -> None:
        if not lm.parallel:
            self.w.open(f"for (long long {idx} = 0; {idx} < {size_src}; {idx}++)")
            return
        tid = self._thread_coord(lm)
        bdim = self._block_dim(lm)
        bid = self._block_coord(lm, size_src)
        span = lm.span
        if isinstance(span, Span):
            if span.n == 1:
                self.w.line(
                    f"long long {idx} = {bid} * {bdim} + {tid};"
                )
                self.w.open(f"if ({idx} < {size_src})")
            else:
                self.w.open(f"for (int s_{idx} = 0; s_{idx} < {span.n}; s_{idx}++)")
                self.w.line(
                    f"long long {idx} = (long long){bid} * {bdim} * {span.n}"
                    f" + s_{idx} * {bdim} + {tid};"
                )
                self.w.open(f"if ({idx} < {size_src})")
        elif isinstance(span, SpanAll):
            self.w.open(
                f"for (long long {idx} = {tid}; {idx} < {size_src}; "
                f"{idx} += {bdim})"
            )
        elif isinstance(span, Split):
            extent = self._grid_extent(lm, size_src)
            self.w.line(
                f"long long region_{idx} = ({size_src} + {extent} - 1) / {extent};"
            )
            self.w.line(f"long long start_{idx} = {bid} * region_{idx};")
            self.w.line(
                f"long long end_{idx} = min((long long){size_src}, "
                f"start_{idx} + region_{idx});"
            )
            self.w.open(
                f"for (long long {idx} = start_{idx} + {tid}; "
                f"{idx} < end_{idx}; {idx} += {bdim})"
            )
        else:  # pragma: no cover - exhaustive
            raise CodegenError(f"unknown span {span}")

    def _close_index_loop(self, lm: LevelMapping) -> None:
        if not lm.parallel:
            self.w.close()
            return
        span = lm.span
        if isinstance(span, Span):
            self.w.close()  # the bounds guard
            if span.n > 1:
                self.w.close()  # the span loop
        else:
            self.w.close()

    # -- logical-dimension linearization (paper footnote 3) -------------------
    #
    # Logical dimensions beyond z share the physical z axis: their thread
    # and block coordinates are recovered by div/mod decomposition, exactly
    # the manual linearization the paper notes is equivalent to
    # multidimensional thread blocks.

    def _folded_dims(self) -> List[Dim]:
        """Logical dims sharing physical z, fastest (Z) first."""
        z_dims = sorted(
            lm.dim
            for lm in self.mapping.levels
            if lm.parallel and int(lm.dim) >= 2
        )
        return z_dims if len(z_dims) > 1 else []

    def _is_folded(self, dim: Dim) -> bool:
        return dim in self._folded_dims()

    def _suffix(self, dim: Dim) -> str:
        return _DIM_SUFFIX[Dim(min(int(dim), 2))]

    def _thread_coord(self, lm: LevelMapping) -> str:
        if self._is_folded(lm.dim):
            divisor = 1
            for d in self._folded_dims():
                if d == lm.dim:
                    break
                level = self.mapping.level_of_dim(d)
                divisor *= self.mapping.level(level).block_size
            base = (
                "threadIdx.z" if divisor == 1
                else f"(threadIdx.z / {divisor})"
            )
            return f"({base} % {lm.block_size})"
        return f"threadIdx.{self._suffix(lm.dim)}"

    def _block_dim(self, lm: LevelMapping) -> str:
        if self._is_folded(lm.dim):
            return str(lm.block_size)
        return f"blockDim.{self._suffix(lm.dim)}"

    def _level_size_src(self, level: int) -> str:
        patterns = self._enclosing_patterns(level)
        if level < len(patterns):
            return lower_expr(patterns[level].size, self.ctx)
        return "1"

    def _grid_extent(self, lm: LevelMapping, size_src: str) -> str:
        """Runtime block count along one level's dimension."""
        span = lm.span
        if isinstance(span, Span):
            per = lm.block_size * span.n
            return f"(({size_src} + {per - 1}) / {per})"
        if isinstance(span, SpanAll):
            return "1"
        if isinstance(span, Split):
            return str(span.k)
        return "1"  # pragma: no cover

    def _block_coord(self, lm: LevelMapping, size_src: str) -> str:
        if self._is_folded(lm.dim):
            divisors: List[str] = []
            for d in self._folded_dims():
                if d == lm.dim:
                    break
                level = self.mapping.level_of_dim(d)
                inner_lm = self.mapping.level(level)
                divisors.append(
                    self._grid_extent(inner_lm, self._level_size_src(level))
                )
            base = "blockIdx.z"
            if divisors:
                base = f"(blockIdx.z / ({' * '.join(divisors)}))"
            return f"({base} % {self._grid_extent(lm, size_src)})"
        return f"blockIdx.{self._suffix(lm.dim)}"

    # -- helpers --------------------------------------------------------------

    def _inner_parallel_guards(self, level: int) -> List[str]:
        """Conditions selecting one thread along every inner parallel dim."""
        guards = []
        for inner in range(level + 1, self.mapping.num_levels):
            lm = self.mapping.level(inner)
            if lm.parallel:
                guards.append(f"{self._thread_coord(lm)} == 0")
        return guards

    def _enclosing_patterns(self, level: int) -> List[PatternExpr]:
        spine: List[PatternExpr] = []
        node: Optional[Expr] = self.analysis.root
        while isinstance(node, PatternExpr) and len(spine) <= level:
            spine.append(node)
            body = node.body_nodes()[0] if node.body_nodes() else None
            if isinstance(body, Block):
                body = body.result
            node = body if isinstance(body, PatternExpr) else None
        return spine[: level + 1]

    def _dim_linear_stride(self, dim: Dim) -> str:
        """Linear-thread-id stride of one logical dim within the block.

        The block sizes are static in the mapping, so the stride is a
        literal — which also handles folded (>z) dimensions naturally.
        """
        stride = 1
        for lm in self.mapping.levels:
            if lm.parallel and lm.dim < dim:
                stride *= lm.block_size
        return str(stride)


def _direct_patterns(expr: Expr) -> List[PatternExpr]:
    """Pattern nodes directly embedded in an expression (not nested in
    other patterns within it)."""
    found: List[PatternExpr] = []

    def visit(node) -> None:
        if isinstance(node, PatternExpr):
            found.append(node)
            return
        for child in node.children():
            visit(child)

    visit(expr)
    return found


def _row_major_strides(extents: Sequence[str]) -> Tuple[str, ...]:
    """Symbolic row-major strides for the given extent expressions."""
    strides: List[str] = []
    for axis in range(len(extents)):
        trailing = extents[axis + 1:]
        if not trailing:
            strides.append("1")
        else:
            strides.append(" * ".join(f"({e})" for e in trailing))
    return tuple(strides)


#: Random indices (``RandomIndex``) lower to ``repro_rand()``: a
#: deterministic per-thread hash.  The interpreter is the reference for
#: the values a random access reads.
_REPRO_RAND_SOURCE = """\
__device__ unsigned int repro_rand() {
    unsigned int x = (threadIdx.x + 1024u * (threadIdx.y + 1024u * threadIdx.z))
        ^ 2654435761u * (blockIdx.x + 65536u * (blockIdx.y + 65536u * blockIdx.z));
    x = (x ^ (x >> 16)) * 0x45d9f3bu;
    return x ^ (x >> 16);
}
"""


def device_function_preamble(roots: Sequence[PatternExpr]) -> str:
    """CUDA source, once each, for every device function the nests call."""
    sources: List[str] = []
    for root in roots:
        for call in find_instances(root, FnCall):
            if call.fn.cuda_source and call.fn.cuda_source not in sources:
                sources.append(call.fn.cuda_source)
        if find_instances(root, RandomIndex) and _REPRO_RAND_SOURCE not in sources:
            sources.append(_REPRO_RAND_SOURCE)
    return "\n".join(sources)
