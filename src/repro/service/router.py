"""Consistent-hash placement for the compile fleet.

:class:`HashRing` hashes backend names onto a ring.  Requests are placed
by their :func:`~repro.ir.serialize.compile_digest`, so one digest
always lands on the same backend (virtual replicas keep the shares
balanced).  Membership is fixed when the ring is built: a dead backend
stays in the ring and its breaker steers traffic away.
:meth:`HashRing.preference` yields the full failover order — the primary
first, then each distinct successor clockwise — which is the retry
schedule the fleet router walks on backend death or saturation.

The ring is deterministic: it hashes with SHA-256 (no process-seeded
``hash()``), so placement is stable across processes and restarts — a
prerequisite for sharding one disk store between fleet members without
them shuffling ownership every boot.  The router's hot artifact tier is
the process's one bounded memo, :class:`repro.analysis.cache.LRUCache`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, List, Optional, Tuple

#: Virtual points per node.  64 keeps the largest/smallest keyspace
#: share within a few percent for small fleets while the ring stays
#: tiny (a 16-backend ring is 1024 sorted tuples).
DEFAULT_RING_REPLICAS = 64


def _ring_point(key: str) -> int:
    """A stable 64-bit position on the ring for ``key``."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash ring over a fixed set of named nodes.

    The sorted points are built once, so concurrent lookups need no lock.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        replicas: int = DEFAULT_RING_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ValueError("hash ring needs at least one replica")
        self._nodes: List[str] = sorted(set(nodes))
        #: Sorted ``(point, node)`` tuples; ties broken by node name so
        #: two processes building the same ring agree exactly.
        self._points: List[Tuple[int, str]] = sorted(
            (_ring_point(f"{node}#{i}"), node)
            for node in self._nodes
            for i in range(replicas)
        )

    def nodes(self) -> List[str]:
        return list(self._nodes)

    def node_for(self, key: str) -> str:
        """The primary owner of ``key`` (first node clockwise)."""
        preference = self.preference(key, limit=1)
        if not preference:
            raise ValueError("hash ring is empty")
        return preference[0]

    def preference(
        self, key: str, limit: Optional[int] = None
    ) -> List[str]:
        """Every distinct node in failover order for ``key``.

        The primary first, then each new node met walking clockwise —
        the order the fleet router retries in when a backend is dead or
        shedding load.  ``limit`` truncates the walk.
        """
        if not self._points:
            return []
        want = len(self._nodes) if limit is None else min(
            limit, len(self._nodes)
        )
        start = bisect_right(self._points, (_ring_point(key), "\uffff"))
        order: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            _, node = self._points[(start + offset) % len(self._points)]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) >= want:
                    break
        return order


__all__ = ["DEFAULT_RING_REPLICAS", "HashRing"]
