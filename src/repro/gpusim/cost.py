"""Analytic kernel cost model.

Given a kernel's analysis facts, a mapping decision, and runtime sizes, the
model estimates execution time from first-order GPU behaviour:

* **memory traffic** — per-access warp transactions from the exact
  coalescing model, with an L2 reuse correction, divided by the bandwidth
  achievable at the launch's occupancy;
* **memory latency** — total warp-level load issues over the outstanding-
  request capacity of the resident warps (dominates at low occupancy);
* **compute** — arithmetic operation counts over peak throughput;
* **overheads** — kernel launch, block scheduling, device-side malloc
  (serialized), shared-memory reduction trees, atomics, and Split(k)
  combiner kernels.

Every effect the paper's evaluation narrative relies on is an explicit
term, so mapping comparisons (who wins, where the crossover is) are
meaningful even though absolute times are synthetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..analysis.access import AccessSite
from ..analysis.analyzer import KernelAnalysis
from ..analysis.mapping import Mapping, SpanAll, Split
from ..analysis.nesting import Nest
from ..analysis.shapes import SizeEnv, eval_size
from ..errors import SimulationError
from ..ir.expr import (
    ArrayRead,
    BinOp,
    Call,
    Cmp,
    If,
    Node,
    Select,
    Store,
    UnOp,
)
from ..ir.functions import FnCall
from ..ir.patterns import Filter, GroupBy, PatternExpr, Reduce
from .coalescing import distinct_warp_combos, warp_transactions
from .device import GpuDevice
from .occupancy import compute_occupancy
from .stats import AccessCost, KernelCost

#: Cost in op-equivalents of a transcendental intrinsic.
TRANSCENDENTAL_OPS = 6.0
#: Index-arithmetic op-equivalents charged per array access.
INDEX_OPS_PER_ACCESS = 2.0
#: Cost of one __syncthreads() in nanoseconds.
SYNC_NS = 20.0


@dataclass(frozen=True)
class LaunchPlan:
    """Optimization decisions that affect the cost of a launch.

    Produced by :mod:`repro.optim`; a default-constructed plan means
    "no optimizations applied" (dynamic mallocs stay, canonical row-major
    layouts, no shared-memory prefetch).
    """

    #: Inner allocations preallocated outside the kernel (Section V-A).
    prealloc: bool = False
    #: Physical element strides per flexible-layout array key; absent keys
    #: use canonical row-major.
    layout_strides: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    #: Array keys whose outer-level accesses are staged through shared
    #: memory (Section V-B).
    smem_prefetch: FrozenSet[str] = frozenset()
    #: Extra shared memory per block requested by the plan (bytes).
    extra_shared_bytes: int = 0

    def strides_for(self, key: str) -> Optional[Tuple[int, ...]]:
        for k, strides in self.layout_strides:
            if k == key:
                return strides
        return None


def runtime_level_sizes(nest: Nest, env: SizeEnv) -> List[int]:
    """Per-level domain sizes under runtime bindings."""
    sizes = []
    for level in nest.levels:
        sizes.append(
            max(
                max(1, int(eval_size(p.pattern.size, env)))
                for p in level.patterns
            )
        )
    return sizes


def count_ops(
    root: PatternExpr,
    env: SizeEnv,
    mapping: Optional[Mapping] = None,
    index_levels: Optional[dict] = None,
) -> float:
    """Total arithmetic op-equivalents executed by one kernel run.

    With a ``mapping`` and an index-name->level map, branch costs become
    mapping-dependent: a condition on a warp-varying index makes the warp
    execute *both* paths (thread divergence), so such branches bill the
    sum of their branch costs instead of the probability-weighted
    expectation.
    """
    total = [0.0]

    def branch_weights(cond: Node, prob: float) -> Tuple[float, float]:
        if mapping is not None and index_levels:
            from ..analysis.access import index_vars_in

            deps = index_vars_in(cond, frozenset(index_levels))
            diverged = any(
                index_levels[name] < mapping.num_levels
                and mapping.varies_within_warp(index_levels[name])
                for name in deps
                if name in index_levels
            )
            if diverged:
                return (1.0, 1.0)
        return (prob, 1.0 - prob)

    def visit(node: Node, multiplier: float) -> None:
        if isinstance(node, PatternExpr):
            size = max(1, int(eval_size(node.size, env)))
            inner = multiplier * size
            for child in node.body_nodes():
                visit(child, inner)
            if isinstance(node, Reduce):
                total[0] += inner  # the combine operation itself
                if node.combine is not None:
                    visit(node.combine[2], inner)
            return
        if isinstance(node, (BinOp, Cmp, UnOp)):
            total[0] += multiplier
        elif isinstance(node, Select):
            total[0] += multiplier
            w_true, w_false = branch_weights(node.cond, node.prob)
            visit(node.cond, multiplier)
            visit(node.if_true, multiplier * w_true)
            visit(node.if_false, multiplier * w_false)
            return
        elif isinstance(node, If):
            w_true, w_false = branch_weights(node.cond, node.prob)
            visit(node.cond, multiplier)
            for stmt in node.then:
                visit(stmt, multiplier * w_true)
            for stmt in node.otherwise:
                visit(stmt, multiplier * w_false)
            return
        elif isinstance(node, Call):
            total[0] += multiplier * TRANSCENDENTAL_OPS
        elif isinstance(node, FnCall):
            total[0] += multiplier * node.fn.flops
        elif isinstance(node, (ArrayRead, Store)):
            total[0] += multiplier * INDEX_OPS_PER_ACCESS
        for child in node.children():
            visit(child, multiplier)

    visit(root, 1.0)
    return total[0]


def _site_issues(
    site: AccessSite,
    mapping: Mapping,
    sizes: Sequence[int],
    total_warps: float,
    device: GpuDevice,
    env: SizeEnv,
) -> float:
    """Warp-level instruction issues for one access site.

    Reads: each warp executes the access once per iteration of every
    enclosing level at or above the site's level (threads redundantly load
    outer-level values they need); deeper levels' iterations do not
    re-execute it, since the statement is hoisted outside inner loops.

    Writes: generated code guards outer-level stores so exactly one thread
    per index combination performs them, so issues are the semantic
    execution count divided by the distinct combinations per warp.
    """
    if site.kind == "write":
        combos = distinct_warp_combos(site, mapping, device)
        return site.exec_count(env) / combos
    iters = 1.0
    for level in range(min(site.level + 1, mapping.num_levels)):
        iters *= mapping.thread_iterations(level, sizes[level])
    return total_warps * iters * site.branch_prob


def _estimate_shared_bytes(
    analysis: KernelAnalysis, mapping: Mapping, plan: LaunchPlan
) -> int:
    """Shared memory per block the generated kernel would request."""
    smem = plan.extra_shared_bytes
    for level_info in analysis.nest.levels:
        lm = (
            mapping.level(level_info.level)
            if level_info.level < mapping.num_levels
            else None
        )
        if lm is None or not lm.parallel:
            continue
        if isinstance(lm.span, (SpanAll, Split)) and any(
            p.needs_sync for p in level_info.patterns
        ):
            # Block-wide reduction scratch: one slot per thread.
            smem += mapping.threads_per_block() * 8
            break
    return smem


def estimate_kernel_cost(
    analysis: KernelAnalysis,
    mapping: Mapping,
    device: GpuDevice,
    env: Optional[SizeEnv] = None,
    plan: Optional[LaunchPlan] = None,
) -> KernelCost:
    """Estimate the execution time of one kernel under a mapping."""
    from ..observability import get_metrics, get_tracer

    with get_tracer().span("simulate", mapping=str(mapping)) as span:
        cost = _estimate_kernel_cost(analysis, mapping, device, env, plan)
        total = cost.total_us
        # A poisoned estimate (fault injection) must not leak NaN into the
        # trace JSON or the monotone counters.
        span.set(total_us=round(total, 3) if math.isfinite(total) else str(total))
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("simulate.kernels").inc()
        for name, us in cost.components().items():
            if math.isfinite(us):
                metrics.counter(f"cost.{name}").inc(us)
    return cost


def _estimate_kernel_cost(
    analysis: KernelAnalysis,
    mapping: Mapping,
    device: GpuDevice,
    env: Optional[SizeEnv] = None,
    plan: Optional[LaunchPlan] = None,
) -> KernelCost:
    from ..resilience.faults import maybe_inject

    fault = maybe_inject("simulator")
    if env is None:
        env = analysis.env
    if plan is None:
        plan = LaunchPlan()
    nest = analysis.nest
    if mapping.num_levels != nest.depth:
        raise SimulationError(
            f"mapping has {mapping.num_levels} levels, nest has {nest.depth}"
        )

    sizes = runtime_level_sizes(nest, env)
    # Load imbalance: a dynamically sized level executed as a per-thread
    # sequential loop makes each warp wait for its slowest lane, inflating
    # per-thread iterations by the workload's skew ratio.  Parallelized
    # dynamic levels (Span(all): one block per outer iteration) are
    # balanced by the hardware block scheduler instead — the very reason
    # warp/block-based mappings win on skewed graphs.
    iter_sizes = list(sizes)
    imbalanced = False
    for level_info in nest.levels:
        level = level_info.level
        if level >= mapping.num_levels:
            continue
        dynamic = any(p.launch_dynamic for p in level_info.patterns)
        if dynamic and not mapping.level(level).parallel and env.skew > 1.0:
            iter_sizes[level] = int(sizes[level] * env.skew)
            imbalanced = True
    total_blocks = mapping.total_blocks(sizes)
    tpb = mapping.threads_per_block()
    shared_bytes = _estimate_shared_bytes(analysis, mapping, plan)
    occ = compute_occupancy(device, total_blocks, tpb, shared_bytes)

    cost = KernelCost(occupancy=occ)
    cost.launch_us = device.kernel_launch_us
    cost.block_sched_us = (
        total_blocks * device.block_sched_ns / 1e3 / device.num_sms
    )

    # -- dynamic allocations -------------------------------------------
    if not plan.prealloc:
        malloc_calls = sum(a.alloc_count(env) for a in analysis.accesses.allocs)
        cost.malloc_us = malloc_calls * device.malloc_us

    # -- memory ----------------------------------------------------------
    total_warps = total_blocks * occ.warps_per_block
    seg = device.mem_transaction_bytes
    resident_line_bytes = max(
        seg, occ.resident_warps * device.warp_size * seg
    )

    issues_total = 0.0
    traffic_total = 0.0
    smem_extra_ops = 0.0

    for site in analysis.accesses.sites:
        prefetched = site.array_key in plan.smem_prefetch and site.level < (
            nest.depth - 1
        )
        footprint = site.footprint_bytes(env)
        if prefetched:
            # The chunk is loaded once, coalesced, by dim-x threads; later
            # uses hit shared memory (Section V-B).
            effective = footprint
            issues = footprint / seg
            transactions = 1
            smem_extra_ops += site.exec_count(env)
        else:
            profile = warp_transactions(
                site, mapping, device, plan.strides_for(site.array_key)
            )
            issues = _site_issues(
                site, mapping, iter_sizes, total_warps, device, env
            )
            transactions = profile.transactions
            issued = issues * transactions * seg
            if issued <= footprint:
                effective = issued
            else:
                # Redundant fetches are absorbed by L2 when the live line
                # set fits.  Lines are shared across threads touching the
                # same data, so the live set is bounded both by one line
                # per resident thread and by the access's own footprint.
                ws_bytes = max(seg, min(resident_line_bytes, footprint))
                hit_rate = min(1.0, device.l2_cache_bytes / ws_bytes)
                effective = footprint + (issued - footprint) * (1.0 - hit_rate)
        issues_total += issues
        traffic_total += effective
        cost.accesses.append(
            AccessCost(
                array_key=site.array_key,
                kind=site.kind,
                level=site.level,
                issues=issues,
                transactions_per_issue=transactions,
                issued_bytes=issues * transactions * seg,
                footprint_bytes=footprint,
                effective_bytes=effective,
                smem_prefetched=prefetched,
            )
        )

    bw = device.mem_bandwidth_gbs * 1e9 * max(1e-6, occ.bandwidth_fraction)
    cost.traffic_bytes = traffic_total
    cost.mem_bandwidth_us = traffic_total / bw * 1e6

    latency_s = device.mem_latency_cycles / (device.clock_ghz * 1e9)
    concurrency = max(1.0, occ.resident_warps * device.mem_parallelism)
    cost.mem_latency_us = issues_total * latency_s / concurrency * 1e6

    # -- compute ---------------------------------------------------------
    index_levels = {
        info.pattern.index.name: info.level
        for info in nest.info_by_pattern.values()
    }
    ops = count_ops(analysis.root, env, mapping, index_levels)
    compute_util = min(
        1.0, occ.resident_warps / device.warps_for_peak_compute
    )
    if occ.resident_blocks < device.num_sms:
        # Blocks pin to SMs; fewer blocks than SMs leaves whole SMs idle
        # no matter how many warps the busy ones hold.
        compute_util = min(
            compute_util, occ.resident_blocks / device.num_sms
        )
    cost.compute_us = ops / (device.peak_flops * max(1e-6, compute_util)) * 1e6
    if imbalanced:
        # Idle lanes during the skewed sequential loop waste issue slots.
        cost.compute_us *= env.skew

    # -- shared memory / synchronization ---------------------------------
    smem_ops = smem_extra_ops
    sync_count = 0.0
    for level_info in nest.levels:
        if level_info.level >= mapping.num_levels:
            continue
        lm = mapping.level(level_info.level)
        if not lm.parallel or not isinstance(lm.span, (SpanAll, Split)):
            continue
        if any(p.needs_sync for p in level_info.patterns):
            # Tree reduction per block: each thread writes once, then a
            # log-depth combine; syncs per step.  The scratch is indexed
            # by the *linear* thread id, so a warp's lanes always touch
            # consecutive words — bank-conflict-free regardless of which
            # logical dim is reduced (see repro.gpusim.sharedmem for the
            # general conflict model used by other access shapes).
            steps = max(1, int(math.log2(max(2, lm.block_size))))
            smem_ops += total_blocks * tpb * 2
            sync_count += total_blocks * steps
    # Shared-memory throughput: one access per lane per cycle per SM,
    # derated by the per-access pipeline latency amortized over 8 warps.
    smem_throughput = device.num_sms * device.warp_size * device.clock_ghz * 1e9
    cost.shared_mem_us = (
        smem_ops / smem_throughput * device.shared_mem_cycles / 8 * 1e6
    )
    cost.shared_mem_us += sync_count * SYNC_NS / 1e3 / device.num_sms

    # -- atomics (Filter / GroupBy compaction) ----------------------------
    atomic_count = 0.0
    for level_info in nest.levels:
        for pinfo in level_info.patterns:
            if isinstance(pinfo.pattern, (Filter, GroupBy)):
                count = 1.0
                for p in (*pinfo.enclosing, pinfo.pattern):
                    count *= max(1, int(eval_size(p.size, env)))
                atomic_count += count
    # Warp-aggregated atomics: ~one hardware atomic per warp of elements.
    cost.atomic_us = atomic_count / device.warp_size * device.atomic_ns / 1e3

    # -- combiner kernel for a split Reduce --------------------------------
    split_k = analysis.needs_combiner(mapping)
    if split_k:
        out_bytes = next(
            (
                s.footprint_bytes(env)
                for s in analysis.accesses.sites
                if s.array_key == "__out__"
            ),
            8.0,
        )
        partial_bytes = (split_k + 1) * out_bytes
        cost.combiner_us = (
            device.kernel_launch_us
            + partial_bytes / (device.mem_bandwidth_gbs * 1e9) * 1e6
        )

    if fault is not None and fault.kind in ("nan", "inf"):
        # Injected cost-model poisoning: consumers must reject this via
        # check_finite()/isfinite filtering, never act on it.
        cost.compute_us = float(fault.kind)

    return cost
