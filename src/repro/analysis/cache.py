"""The process's bounded memos and the mapping search's memo keys.

:class:`LRUCache` is the one bounded memo in the process.  It holds the
cross-sweep search memo and the auto-tune memo below, the vectorized
engine's candidate structures and their DOP tables, the request-digest
memo, the artifact store's verified hashes, and the fleet router's hot
tier.  It counts nothing: each owner counts its own hits and evictions
where it reads and writes (``cache.search.*`` and ``cache.autotune.*``
in the process registry for the two memos here).

Shape sweeps and repeated kernels re-run Algorithm 1 with identical
inputs, so the search memo is keyed by a canonical fingerprint of
everything the result depends on: the constraint set (every field of
every constraint), the nest depth, the analysis sizes, the block-size
grid, the DOP window, and whether all candidates are retained.  Two searches with equal keys return byte-identical results,
so serving the memo is safe.  The auto-tune memo's key additionally
covers the kernel IR, the size environment, and the device (the cost
model reads all three).  Both live only as long as the process.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Any, Hashable, Optional, Tuple

from ..observability import get_metrics
from .constraints import Constraint, ConstraintSet


def _freeze(value: Any) -> Hashable:
    """Recursively convert a field value into something hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__qualname__,
            tuple(
                (f.name, _freeze(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, (int, float, str, bool, bytes)) or value is None:
        return value
    return repr(value)


def constraint_fingerprint(constraint: Constraint) -> Tuple:
    """Canonical, hashable identity of one constraint (all fields)."""
    if dataclasses.is_dataclass(constraint):
        return (
            type(constraint).__qualname__,
            tuple(
                (f.name, _freeze(getattr(constraint, f.name)))
                for f in dataclasses.fields(constraint)
            ),
        )
    return (type(constraint).__qualname__, repr(constraint))


def constraint_set_fingerprint(cset: ConstraintSet) -> Tuple:
    """Fingerprint of a whole constraint set, in insertion order."""
    return tuple(constraint_fingerprint(c) for c in cset.constraints)


def search_cache_key(
    cset: ConstraintSet,
    num_levels: int,
    sizes: Tuple[int, ...],
    block_sizes: Tuple[int, ...],
    window,
    keep_all: bool,
) -> Tuple:
    """Key for one ``search_mapping`` invocation."""
    return (
        "search",
        constraint_set_fingerprint(cset),
        num_levels,
        tuple(sizes),
        tuple(block_sizes),
        (window.min_dop, window.max_dop),
        keep_all,
    )


#: Sentinel distinguishing "absent" from a stored ``None``.
_MISSING = object()


class LRUCache:
    """The one bounded memo: a thread-safe LRU of at most ``capacity``
    entries (``0`` disables it: every lookup misses, nothing is kept).

    It counts nothing.  :meth:`put` returns its evictions and
    :meth:`pop` whether it dropped anything, so each owner counts what
    it needs where it reads and writes.  Entries are shared with every
    reader; callers must not mutate them.
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

    def pop(self, key: Hashable) -> bool:
        """Drop ``key``; True if it was present (a stored ``None`` too)."""
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


_SEARCH_CACHE = LRUCache(4096)
_AUTOTUNE_CACHE = LRUCache(512)


def get_search_cache() -> LRUCache:
    """The process-wide mapping-search memo (``cache.search.*``)."""
    return _SEARCH_CACHE


def get_autotune_cache() -> LRUCache:
    """The process-wide auto-tune memo (``cache.autotune.*``)."""
    return _AUTOTUNE_CACHE


def count_memo(name: str, event: str, amount: int = 1) -> None:
    """Add ``amount`` to ``cache.<name>.<event>`` in the process registry
    (``event`` is ``hits``, ``misses``, ``evictions`` or
    ``invalidations``); a zero amount records nothing."""
    if amount:
        get_metrics().counter(f"cache.{name}.{event}").inc(amount)


def clear_caches() -> None:
    """Empty every process-wide memo (tests, benchmarks): the search and
    auto-tune memos, the vectorized engine's candidate structures, and
    the request-digest memo."""
    _SEARCH_CACHE.clear()
    _AUTOTUNE_CACHE.clear()
    from .vectorized import clear_batch_memo

    clear_batch_memo()
    from ..service.api import clear_digest_memo

    clear_digest_memo()
