"""GPU device descriptions for the analytic performance model.

The paper evaluates on an NVIDIA Tesla K20c (13 SMs, 2048 threads/SM) with
CUDA 5.0; the C2050 (14 SMs) appears in its background section.  Since this
reproduction has no physical GPU, these records parameterize the simulator
in :mod:`repro.gpusim.cost`.  Microarchitectural constants (latencies,
overheads) are first-order figures from public Kepler/Fermi
microbenchmarking literature; the evaluation depends on their *ratios*, not
their absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.dop import DopWindow


@dataclass(frozen=True)
class GpuDevice:
    """An analytic GPU model."""

    name: str
    num_sms: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    warp_size: int
    max_threads_per_block: int
    shared_mem_per_sm_bytes: int
    l2_cache_bytes: int
    clock_ghz: float
    cores_per_sm: int
    #: Achievable global-memory bandwidth (GB/s); below the marketing peak.
    mem_bandwidth_gbs: float
    #: DRAM transaction granularity (coalescing segment size).
    mem_transaction_bytes: int
    #: Average global-memory load latency, in cycles.
    mem_latency_cycles: float
    #: Memory-level parallelism: outstanding loads sustainable per warp.
    mem_parallelism: float
    #: Warps per device needed to saturate DRAM bandwidth.
    warps_for_peak_bw: int
    #: Warps per device needed to saturate arithmetic throughput with
    #: dependent instruction chains (ILP ~ 1): roughly
    #: cores_per_sm / warp_size * pipeline_latency warps per SM.
    warps_for_peak_compute: int
    #: Fixed cost of launching one kernel (microseconds).
    kernel_launch_us: float
    #: Scheduling cost per thread block beyond the resident set (ns).
    block_sched_ns: float
    #: Serialized cost of one device-side malloc (us).  CUDA's device heap
    #: allocator takes a global lock, so concurrent allocations from
    #: thousands of threads effectively serialize — the overhead the
    #: preallocation optimization removes (Section V-A).
    malloc_us: float
    #: Cost of one shared-memory access (cycles) and one atomic (ns).
    shared_mem_cycles: float
    atomic_ns: float
    #: Host-device transfer: PCIe bandwidth (GB/s) and per-call latency.
    pcie_bandwidth_gbs: float
    pcie_latency_us: float

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    @property
    def max_resident_warps(self) -> int:
        return self.num_sms * self.max_warps_per_sm

    @property
    def peak_flops(self) -> float:
        """Peak single-issue arithmetic throughput (ops/second)."""
        return self.num_sms * self.cores_per_sm * self.clock_ghz * 1e9

    @property
    def min_dop(self) -> int:
        """Section IV-D: threads needed to fill every SM."""
        return self.num_sms * self.max_threads_per_sm

    @property
    def max_dop(self) -> int:
        """Section IV-D: 100x the minimum bounds the block count."""
        return 100 * self.min_dop

    def dop_window(self) -> DopWindow:
        return DopWindow(min_dop=self.min_dop, max_dop=self.max_dop)


#: The paper's evaluation GPU.
TESLA_K20C = GpuDevice(
    name="Tesla K20c",
    num_sms=13,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    warp_size=32,
    max_threads_per_block=1024,
    shared_mem_per_sm_bytes=48 * 1024,
    l2_cache_bytes=1280 * 1024,
    clock_ghz=0.706,
    cores_per_sm=192,
    mem_bandwidth_gbs=150.0,
    mem_transaction_bytes=128,
    mem_latency_cycles=440.0,
    mem_parallelism=4.0,
    warps_for_peak_bw=13 * 28,
    warps_for_peak_compute=13 * 30,
    kernel_launch_us=6.0,
    block_sched_ns=250.0,
    malloc_us=25.0,
    shared_mem_cycles=28.0,
    atomic_ns=80.0,
    pcie_bandwidth_gbs=6.0,
    pcie_latency_us=10.0,
)

#: The background section's Fermi-generation device.
TESLA_C2050 = GpuDevice(
    name="Tesla C2050",
    num_sms=14,
    max_threads_per_sm=1536,
    max_blocks_per_sm=8,
    warp_size=32,
    max_threads_per_block=1024,
    shared_mem_per_sm_bytes=48 * 1024,
    l2_cache_bytes=768 * 1024,
    clock_ghz=1.15,
    cores_per_sm=32,
    mem_bandwidth_gbs=105.0,
    mem_transaction_bytes=128,
    mem_latency_cycles=520.0,
    mem_parallelism=4.0,
    warps_for_peak_bw=14 * 24,
    warps_for_peak_compute=14 * 10,
    kernel_launch_us=7.0,
    block_sched_ns=300.0,
    malloc_us=30.0,
    shared_mem_cycles=32.0,
    atomic_ns=120.0,
    pcie_bandwidth_gbs=5.5,
    pcie_latency_us=10.0,
)

DEVICES = {d.name: d for d in (TESLA_K20C, TESLA_C2050)}


def default_device() -> GpuDevice:
    """The device all experiments use unless overridden (paper's K20c)."""
    return TESLA_K20C
