"""Rodinia Gaussian Elimination (Figures 12 and 13).

One elimination step ``t`` consists of two kernels, as in Rodinia:

* **Fan1** (one level): the multiplier column
  ``mult[i] = a[t+1+i, t] / a[t, t]``;
* **Fan2** (two levels): the trailing-submatrix update
  ``a[t+1+i, t+j] -= mult[i] * a[t, t+j]``.

The paper's headline for this app: Rodinia's hand-written CUDA fails to
coalesce one of the two-level nests, while the analysis assigns dimensions
correctly and *beats* manual code.  The manual profile is therefore the
same program simulated with the dimension assignment swapped on the
two-level kernel — exactly the mistake the paper describes.

Row-major (R) and column-major (C) traversal variants exist for Figure 13.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..gpusim.device import GpuDevice
from ..ir.builder import Builder, range_foreach, store, store2
from ..ir.expr import Block, Const, ExprStmt
from ..ir.patterns import Program
from ..ir.types import F64, I64
from .common import App


def build_gaussian(order: str = "R", **params: int) -> Program:
    """Fan1 + Fan2 for one elimination step (step index = parameter T)."""
    b = Builder(f"gaussian_{order}")
    n = b.size("N")
    t = b.size("T")
    a = b.matrix("a", F64, rows="N", cols="N")
    mult = b.vector("mult", F64, length="N")

    rows_below = n - t - 1
    cols_right = n - t

    # Fan1: multiplier column (one level of parallelism).
    fan1 = range_foreach(
        rows_below,
        lambda i: [store(mult, t + 1 + i, a[t + 1 + i, t] / a[t, t])],
        index_name="i",
    )

    # Fan2: trailing submatrix update (two levels).
    def fan2_row(i):
        return [
            ExprStmt(
                range_foreach(
                    cols_right,
                    lambda j: [
                        store2(
                            a,
                            t + 1 + i,
                            t + j,
                            a[t + 1 + i, t + j]
                            - mult[t + 1 + i] * a[t, t + j],
                        )
                    ],
                    index_name="j",
                )
            )
        ]

    def fan2_col(j):
        return [
            ExprStmt(
                range_foreach(
                    rows_below,
                    lambda i: [
                        store2(
                            a,
                            t + 1 + i,
                            t + j,
                            a[t + 1 + i, t + j]
                            - mult[t + 1 + i] * a[t, t + j],
                        )
                    ],
                    index_name="i",
                )
            )
        ]

    if order == "R":
        fan2 = range_foreach(rows_below, fan2_row, index_name="i")
    else:
        fan2 = range_foreach(cols_right, fan2_col, index_name="j")

    result = Block((ExprStmt(fan1), ExprStmt(fan2)), Const(0, I64))
    return b.build(result)


def workload(rng: np.random.Generator, N: int = 1024, T: int = 0, **_: int) -> Dict[str, Any]:
    a = rng.random((N, N)) + np.eye(N) * N  # diagonally dominant
    return {"a": a, "mult": np.zeros(N), "N": N, "T": T}


def reference(inputs: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """One elimination step applied with NumPy."""
    a = inputs["a"].copy()
    mult = inputs["mult"].copy()
    t = inputs["T"]
    mult[t + 1:] = a[t + 1:, t] / a[t, t]
    a[t + 1:, t:] = a[t + 1:, t:] - mult[t + 1:, None] * a[t, t:][None, :]
    return {"a": a, "mult": mult}


def _swap_dims(mapping):
    """The manual version's mistake: x and y assignments swapped."""
    from repro.analysis.mapping import Dim, LevelMapping, Mapping

    swap = {Dim.X: Dim.Y, Dim.Y: Dim.X}
    levels = []
    for lm in mapping.levels:
        if lm.parallel and lm.dim in swap:
            levels.append(LevelMapping(swap[lm.dim], lm.block_size, lm.span))
        else:
            levels.append(lm)
    return Mapping(tuple(levels))


def manual_time_us(device: GpuDevice, **params: int) -> float:
    """Rodinia's CUDA: correct Fan1, non-coalesced Fan2."""
    from ..gpusim.cost import estimate_kernel_cost
    from ..runtime.session import GpuSession

    compiled = GpuSession(device, resilient=False).compile(
        build_gaussian("R"), **params
    )
    total = 0.0
    for decision in compiled.decisions:
        ka, mapping = decision.analysis, decision.mapping
        if ka.depth >= 2:
            mapping = _swap_dims(mapping)
        total += estimate_kernel_cost(
            ka, mapping, device, compiled.analysis.env, decision.plan
        ).total_us
    return total


GAUSSIAN = App(
    name="gaussian",
    build=build_gaussian,
    workload=workload,
    reference=reference,
    default_params={"N": 2048, "T": 0},
    levels=2,
    manual_time_us=manual_time_us,
)
