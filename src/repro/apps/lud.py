"""Rodinia LUD: LU decomposition's trailing-submatrix update (Figure 12).

Per factorization step ``t`` the internal kernel computes::

    a[t+1+i, t+1+j] -= a[t+1+i, t] * a[t, t+1+j]

a classic rank-1 update with two levels of parallelism.  Rodinia's manual
CUDA is a blocked shared-memory implementation that stages 16x16 tiles of
the pivot row/column and the submatrix, cutting global traffic by roughly
the tile edge — the largest manual advantage in Figure 12 (about 4.6x).
As with Pathfinder, the paper's compiler does not attempt this
application-specific blocking; the manual profile models it explicitly.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..gpusim.device import GpuDevice
from ..ir.builder import Builder, range_foreach, store2
from ..ir.expr import ExprStmt
from ..ir.patterns import Program
from ..ir.types import F64
from .common import App

#: Rodinia's tile edge; reuse factor of the blocked manual kernel.
TILE = 16
#: Fraction of the blocked kernel's traffic that remains (tile loads of
#: the pivot row/column amortize across TILE uses, plus the in/out tile).
BLOCKED_TRAFFIC_FRACTION = 1.0 / 4.0


def build_lud_step(**params: int) -> Program:
    b = Builder("ludInternal")
    n = b.size("N")
    t = b.size("T")
    a = b.matrix("a", F64, rows="N", cols="N")
    below = n - t - 1

    def row(i):
        return [
            ExprStmt(
                range_foreach(
                    below,
                    lambda j: [
                        store2(
                            a,
                            t + 1 + i,
                            t + 1 + j,
                            a[t + 1 + i, t + 1 + j]
                            - a[t + 1 + i, t] * a[t, t + 1 + j],
                        )
                    ],
                    index_name="j",
                )
            )
        ]

    return b.build(range_foreach(below, row, index_name="i"))


def workload(rng: np.random.Generator, N: int = 1024, T: int = 0, **_: int) -> Dict[str, Any]:
    return {"a": rng.random((N, N)) + np.eye(N) * N, "N": N, "T": T}


def reference(inputs: Dict[str, Any]) -> np.ndarray:
    a = inputs["a"].copy()
    t = inputs["T"]
    a[t + 1:, t + 1:] -= np.outer(a[t + 1:, t], a[t, t + 1:])
    return a


def manual_time_us(device: GpuDevice, **params: int) -> float:
    """Rodinia's blocked shared-memory LUD, modeled from its mechanism."""
    from ..runtime.session import GpuSession

    cost = GpuSession(device, resilient=False).compile(
        build_lud_step(), **params
    ).estimate_cost().kernels[0]
    blocked = (
        cost.launch_us
        + cost.block_sched_us
        + max(
            cost.memory_us * BLOCKED_TRAFFIC_FRACTION,
            cost.compute_us,
        )
        + cost.shared_mem_us
    )
    return blocked


LUD = App(
    name="lud",
    build=build_lud_step,
    workload=workload,
    reference=reference,
    default_params={"N": 2048, "T": 0},
    levels=2,
    manual_time_us=manual_time_us,
    iterations=1,
)
