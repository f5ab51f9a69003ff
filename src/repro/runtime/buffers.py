"""Device-memory manager and host-device transfer model.

Tracks simulated device allocations (so experiments can report peak memory
and preallocation totals) and prices host-to-device transfers, which
Section VI-E includes for the Naive Bayes application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import RuntimeConfigError
from ..gpusim.device import GpuDevice, default_device


@dataclass
class DeviceBuffer:
    """One live simulated device allocation."""

    name: str
    nbytes: int


class BufferManager:
    """Allocation bookkeeping for a simulated device."""

    def __init__(self, device: Optional[GpuDevice] = None):
        self.device = device or default_device()
        self._buffers: Dict[str, DeviceBuffer] = {}
        self._peak_bytes = 0
        self._current_bytes = 0

    def alloc(self, name: str, nbytes: int) -> DeviceBuffer:
        if nbytes < 0:
            raise RuntimeConfigError(f"negative allocation for {name!r}")
        if name in self._buffers:
            raise RuntimeConfigError(f"buffer {name!r} already allocated")
        buffer = DeviceBuffer(name, nbytes)
        self._buffers[name] = buffer
        self._current_bytes += nbytes
        self._peak_bytes = max(self._peak_bytes, self._current_bytes)
        return buffer

    def free(self, name: str) -> None:
        try:
            buffer = self._buffers.pop(name)
        except KeyError:
            raise RuntimeConfigError(f"buffer {name!r} is not allocated")
        self._current_bytes -= buffer.nbytes

    @property
    def current_bytes(self) -> int:
        return self._current_bytes

    @property
    def peak_bytes(self) -> int:
        return self._peak_bytes

    def transfer_time_us(self, nbytes: float) -> float:
        """Host-device copy time over PCIe (latency + bandwidth)."""
        return (
            self.device.pcie_latency_us
            + nbytes / (self.device.pcie_bandwidth_gbs * 1e9) * 1e6
        )
