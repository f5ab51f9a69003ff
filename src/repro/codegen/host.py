"""Host-side driver generation: a complete, compilable CUDA translation
unit.

The kernel generator emits ``__global__`` functions; this module wraps a
:class:`~repro.codegen.compiler.CompiledModule` with the host code a CUDA
programmer would write by hand — device allocations, input copies, launch
configuration (from the mapping decision), combiner launches for
``Split(k)`` mappings, and result copy-back — so the artifact of a
compilation is a self-contained ``.cu`` file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.shapes import SizeEnv
from ..gpusim.cost import runtime_level_sizes
from ..ir.patterns import Program
from ..ir.types import ArrayType, ScalarType, StructType
from .compiler import CompiledModule
from .exprs import c_type
from .kernels import CompiledKernel
from .writer import SourceWriter


def generate_host_driver(
    module: CompiledModule,
    sizes: Optional[Dict[str, int]] = None,
) -> str:
    """Emit a ``main()`` that allocates, copies, launches, and verifies.

    ``sizes`` bind the program's size parameters to concrete values for
    buffer extents and launch geometry; unbound sizes fall back to the
    program's hints (or 1024).
    """
    program = module.program
    env = SizeEnv.for_program(program, **(sizes or {}))
    w = SourceWriter()

    w.line("#include <cstdio>")
    w.line("#include <cstdlib>")
    w.line("#include <cuda_runtime.h>")
    w.line("")
    w.line("#define CUDA_CHECK(call) do { \\")
    w.line("    cudaError_t err__ = (call); \\")
    w.line("    if (err__ != cudaSuccess) { \\")
    w.line('        fprintf(stderr, "CUDA error %s at %s:%d\\n", \\')
    w.line("                cudaGetErrorString(err__), __FILE__, __LINE__); \\")
    w.line("        exit(1); \\")
    w.line("    } \\")
    w.line("} while (0)")
    w.line("")

    w.open("int main()")
    _emit_size_bindings(w, program, env)
    host_arrays = _emit_host_buffers(w, program, env)
    _emit_device_buffers(w, program, env, host_arrays)

    for kernel in module.kernels:
        _emit_launch(w, kernel, program, env)

    _emit_copy_back(w, module, env)
    w.line("")
    w.line('printf("done\\n");')
    w.line("return 0;")
    w.close()

    return module.source + "\n" + w.text()


def _size_value(env: SizeEnv, name: str) -> int:
    return int(env.values.get(name, env.default))


def _emit_size_bindings(w: SourceWriter, program: Program, env: SizeEnv) -> None:
    w.line("// size parameters")
    for param in program.params:
        if isinstance(param.ty, ScalarType) and param.ty.is_integer:
            w.line(
                f"long long {param.name} = {_size_value(env, param.name)};"
            )
    w.line("")


def _array_elems(program: Program, env: SizeEnv, key: str) -> int:
    shape = env.array_shapes.get(key)
    if shape is None:
        return env.default
    total = 1
    for extent in shape:
        total *= max(1, int(extent))
    return total


def _flattened_arrays(program: Program) -> List[Tuple[str, ArrayType]]:
    """All array buffers the kernels see, struct fields flattened."""
    arrays: List[Tuple[str, ArrayType]] = []
    for param in program.params:
        if isinstance(param.ty, ArrayType):
            arrays.append((param.name, param.ty))
        elif isinstance(param.ty, StructType):
            for fname, fty in param.ty.fields:
                if isinstance(fty, ArrayType):
                    arrays.append((f"{param.name}_{fname}", fty))
    return arrays


def _struct_shape_key(name: str, program: Program) -> str:
    """Map a flattened C name back to the builder's shape-registry key."""
    for param in program.params:
        if isinstance(param.ty, StructType):
            prefix = f"{param.name}_"
            if name.startswith(prefix):
                return f"{param.name}.{name[len(prefix):]}"
    return name


def _emit_host_buffers(
    w: SourceWriter, program: Program, env: SizeEnv
) -> List[Tuple[str, ArrayType, int]]:
    w.line("// host inputs (zero-initialized placeholders)")
    result = []
    for name, aty in _flattened_arrays(program):
        elem = c_type(aty.elem)
        key = _struct_shape_key(name, program)
        elems = _array_elems(program, env, key)
        w.line(
            f"{elem}* h_{name} = ({elem}*)calloc({elems}, sizeof({elem}));"
        )
        result.append((name, aty, elems))
    for param in program.params:
        if isinstance(param.ty, ScalarType) and param.ty.is_float:
            w.line(f"{c_type(param.ty)} {param.name} = 0;")
    w.line("")
    return result


def _emit_device_buffers(
    w: SourceWriter,
    program: Program,
    env: SizeEnv,
    host_arrays: List[Tuple[str, ArrayType, int]],
) -> None:
    w.line("// device buffers + input copies")
    for name, aty, elems in host_arrays:
        elem = c_type(aty.elem)
        w.line(f"{elem}* d_{name} = nullptr;")
        w.line(
            f"CUDA_CHECK(cudaMalloc(&d_{name}, {elems} * sizeof({elem})));"
        )
        w.line(
            f"CUDA_CHECK(cudaMemcpy(d_{name}, h_{name}, "
            f"{elems} * sizeof({elem}), cudaMemcpyHostToDevice));"
        )
    w.line("")


def _out_elems(kernel: CompiledKernel, env: SizeEnv) -> int:
    outs = [
        s for s in kernel.analysis.accesses.sites if s.array_key == "__out__"
    ]
    if not outs:
        return env.default
    total = 1
    for extent in outs[0].shape:
        total *= max(1, int(extent))
    return total


def _out_elem_type(kernel: CompiledKernel) -> str:
    return next(d for d, name in kernel.params if name == "out").rstrip("*")


def _emit_launch(
    w: SourceWriter,
    kernel: CompiledKernel,
    program: Program,
    env: SizeEnv,
) -> None:
    sizes = runtime_level_sizes(kernel.analysis.nest, env)
    cfg = kernel.launch_config(sizes)
    out_elems = _out_elems(kernel, env)
    split_k = kernel.analysis.needs_combiner(kernel.mapping)
    elem = _out_elem_type(kernel)

    w.line(f"// kernel {kernel.name}: mapping {kernel.mapping}")
    w.line(f"{elem}* d_out_{kernel.name} = nullptr;")
    w.line(
        f"CUDA_CHECK(cudaMalloc(&d_out_{kernel.name}, "
        f"{out_elems} * sizeof({elem})));"
    )

    args: List[str] = []
    for decl, name in kernel.params:
        if name == "out":
            args.append(f"d_out_{kernel.name}")
        elif decl.endswith("*") and name.endswith("_buf"):
            # preallocated intermediate: size = product of level sizes
            elems = 1
            for s in sizes:
                elems *= max(1, s)
            buf_elem = decl.replace("const ", "").rstrip("*").strip()
            w.line(f"{buf_elem}* d_{name} = nullptr;")
            w.line(
                f"CUDA_CHECK(cudaMalloc(&d_{name}, "
                f"{elems} * sizeof({buf_elem})));"
            )
            args.append(f"d_{name}")
        elif name == "partials":
            # one partial per output element and split region
            buf_elem = decl.replace("const ", "").rstrip("*").strip()
            w.line(f"{buf_elem}* d_partials_{kernel.name} = nullptr;")
            w.line(
                f"CUDA_CHECK(cudaMalloc(&d_partials_{kernel.name}, "
                f"{split_k * out_elems} * sizeof({buf_elem})));"
            )
            args.append(f"d_partials_{kernel.name}")
        elif name == "out_count":
            w.line(f"int* d_count_{kernel.name} = nullptr;")
            w.line(
                f"CUDA_CHECK(cudaMalloc(&d_count_{kernel.name}, sizeof(int)));"
            )
            w.line(
                f"CUDA_CHECK(cudaMemset(d_count_{kernel.name}, 0, sizeof(int)));"
            )
            args.append(f"d_count_{kernel.name}")
        elif name == "group_counts":
            w.line(f"int* d_gcounts_{kernel.name} = nullptr;")
            w.line(
                f"CUDA_CHECK(cudaMalloc(&d_gcounts_{kernel.name}, "
                f"256 * sizeof(int)));"
            )
            w.line(
                f"CUDA_CHECK(cudaMemset(d_gcounts_{kernel.name}, 0, "
                f"256 * sizeof(int)));"
            )
            args.append(f"d_gcounts_{kernel.name}")
        elif name == "max_per_group":
            args.append(str(out_elems))
        elif decl.endswith("*"):
            args.append(f"d_{name}")
        else:
            args.append(name)

    gx, gy, gz = cfg.grid
    bx, by, bz = cfg.block
    w.line(f"dim3 grid_{kernel.name}({gx}, {gy}, {gz});")
    w.line(f"dim3 block_{kernel.name}({bx}, {by}, {bz});")
    w.line(
        f"{kernel.name}<<<grid_{kernel.name}, block_{kernel.name}>>>("
        + ", ".join(args) + ");"
    )
    w.line("CUDA_CHECK(cudaGetLastError());")

    if split_k:
        w.line(
            f"{kernel.name}_combine<<<({out_elems} + 255) / 256, 256>>>("
            f"d_partials_{kernel.name}, d_out_{kernel.name}, "
            f"{out_elems}, {split_k});"
        )
        w.line("CUDA_CHECK(cudaGetLastError());")
    w.line("")


def _emit_copy_back(
    w: SourceWriter, module: CompiledModule, env: SizeEnv
) -> None:
    w.line("CUDA_CHECK(cudaDeviceSynchronize());")
    for kernel in module.kernels:
        out_elems = _out_elems(kernel, env)
        elem = _out_elem_type(kernel)
        w.line(
            f"{elem}* h_out_{kernel.name} = "
            f"({elem}*)malloc({out_elems} * sizeof({elem}));"
        )
        w.line(
            f"CUDA_CHECK(cudaMemcpy(h_out_{kernel.name}, "
            f"d_out_{kernel.name}, {out_elems} * sizeof({elem}), "
            f"cudaMemcpyDeviceToHost));"
        )
