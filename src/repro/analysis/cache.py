"""The process's one bounded memo.

:class:`LRUCache` holds the vectorized engine's candidate structures,
the request-digest memo, the artifact store's verified hashes, and the
fleet router's hot tier: the memos whose traffic repeats.  It counts
nothing: each owner counts its own hits and evictions where it reads
and writes.

A kernel's mapping search runs once per compile and its result lives
only as long as that compile, so no search or auto-tune result is
memoized.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Hashable, Optional


class LRUCache:
    """The one bounded memo: a thread-safe LRU of at most ``capacity``
    entries (``0`` disables it: every lookup misses, nothing is kept).

    It counts nothing.  :meth:`put` returns its evictions, so each owner
    counts what it needs where it reads and writes.  Entries are shared
    with every reader; callers must not mutate them.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("LRU capacity cannot be negative")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries = collections.OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> int:
        """Insert or refresh ``key``; returns the evictions (0 or 1)."""
        if not self.enabled:
            return 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) <= self.capacity:
                return 0
            self._entries.popitem(last=False)
            return 1

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def clear_caches() -> None:
    """Empty every process-wide memo (tests, benchmarks): the vectorized
    engine's candidate structures and the request-digest memo."""
    from .vectorized import clear_batch_memo

    clear_batch_memo()
    from ..service.api import clear_digest_memo

    clear_digest_memo()
