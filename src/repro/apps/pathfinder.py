"""Rodinia Pathfinder: iterative dynamic programming over a grid (Fig. 12).

Each step computes, per column, the minimum-cost path extended by one row::

    next[j] = wall[t, j] + min(prev[j-1], prev[j], prev[j+1])

One step has a single level of parallelism; the application iterates over
all rows.  Rodinia's hand-optimized CUDA fuses multiple DP steps into one
kernel using shared memory, trading duplicated halo work for far fewer
global-memory round trips — the optimization the paper explicitly declines
to infer automatically (Section VI-C), which is why manual wins here.  The
manual profile below models that fused kernel from first principles.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..gpusim.device import GpuDevice
from ..ir.builder import Builder, maximum, minimum, range_map
from ..ir.patterns import Program
from ..ir.types import F64
from .common import App

#: Steps Rodinia's fused kernel combines per launch (its "pyramid height").
FUSION_DEPTH = 5


def build_pathfinder_step(**params: int) -> Program:
    b = Builder("pathfinderStep")
    cols = b.size("C")
    rows = b.size("R")
    t = b.size("T")
    wall = b.matrix("wall", F64, rows="R", cols="C")
    prev = b.vector("prev", F64, length="C")

    def step(j):
        left = prev[maximum(j - 1, 0)]
        mid = prev[j]
        right = prev[minimum(j + 1, cols - 1)]
        return wall[t, j] + minimum(left, minimum(mid, right))

    return b.build(range_map(cols, step, index_name="j"))


def workload(
    rng: np.random.Generator, R: int = 100, C: int = 1 << 20, **_: int
) -> Dict[str, Any]:
    return {
        "wall": rng.random((R, C)) * 10.0,
        "prev": rng.random(C) * 10.0,
        "R": R,
        "C": C,
        "T": 1,
    }


def reference(inputs: Dict[str, Any]) -> np.ndarray:
    prev, wall, t = inputs["prev"], inputs["wall"], inputs["T"]
    left = np.concatenate([prev[:1], prev[:-1]])
    right = np.concatenate([prev[1:], prev[-1:]])
    return wall[t] + np.minimum(left, np.minimum(prev, right))


def manual_time_us(device: GpuDevice, **params: int) -> float:
    """Rodinia's fused multi-step kernel, modeled from its mechanism.

    Over ``k = FUSION_DEPTH`` steps the fused kernel reads/writes global
    memory once instead of ``k`` times (intermediate rows stay in shared
    memory), pays one launch instead of ``k``, and duplicates halo compute
    (negligible for wide rows).  Unfused cost components come from our own
    simulator so the comparison is internally consistent.
    """
    from ..runtime.session import GpuSession

    cost = GpuSession(device, resilient=False).compile(
        build_pathfinder_step(), **params
    ).estimate_cost().kernels[0]
    k = FUSION_DEPTH
    # The wall row must be read every step even when fused; only the
    # prev/next vectors stay resident in shared memory between steps.
    wall_bytes = sum(
        a.effective_bytes for a in cost.accesses if a.array_key == "wall"
    )
    vector_bytes = cost.traffic_bytes - wall_bytes
    fused_traffic = wall_bytes + vector_bytes * (1.0 + 2.0 / k) / 3.0
    mem_scale = fused_traffic / max(1.0, cost.traffic_bytes)
    fused_step = (
        cost.launch_us / k
        + cost.block_sched_us / k
        + max(cost.memory_us * mem_scale, cost.compute_us)
        + cost.shared_mem_us
    )
    return fused_step


PATHFINDER = App(
    name="pathfinder",
    build=build_pathfinder_step,
    workload=workload,
    reference=reference,
    default_params={"R": 100, "C": 1 << 20, "T": 1},
    levels=1,
    manual_time_us=manual_time_us,
    iterations=100,
)
