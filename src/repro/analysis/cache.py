"""Cross-sweep memoization for mapping-search results.

Shape sweeps and repeated kernels re-run Algorithm 1 with identical
inputs; this module gives the search a process-wide LRU cache keyed by a
canonical fingerprint of everything the result depends on: the constraint
set (every field of every constraint), the nest depth, the analysis
sizes, the block-size grid, the DOP window, the tie-break seed, and
whether all candidates are retained.  Two searches with equal keys return
byte-identical results, so serving the memo is safe.

A second, smaller cache memoizes the cost-model auto-tuner, whose key
additionally covers the kernel IR, the size environment, and the device
(the cost model reads all three).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
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
    seed: int,
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
        seed,
    )


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters, snapshot at read time."""

    hits: int
    misses: int
    size: int
    maxsize: int
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Sentinel distinguishing "absent" from a stored ``None``.
_MISSING = object()


class SearchCache:
    """A small thread-safe LRU keyed by canonical search fingerprints.

    ``name`` labels this cache's metrics (``cache.<name>.hits`` /
    ``.misses`` / ``.evictions`` / ``.invalidations`` in the registry);
    the internal counters remain authoritative for :meth:`stats`.
    """

    def __init__(self, maxsize: int = 4096, name: str = "search") -> None:
        self.maxsize = maxsize
        self.name = name
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Tuple) -> Optional[Any]:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                get_metrics().counter(f"cache.{self.name}.misses").inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        get_metrics().counter(f"cache.{self.name}.hits").inc()
        return value

    def put(self, key: Tuple, value: Any) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted:
            get_metrics().counter(
                f"cache.{self.name}.evictions"
            ).inc(evicted)

    def invalidate(self, key: Tuple) -> bool:
        """Drop one entry (a hit that failed validation); True if present."""
        with self._lock:
            dropped = self._entries.pop(key, _MISSING) is not _MISSING
        if dropped:
            get_metrics().counter(f"cache.{self.name}.invalidations").inc()
        return dropped

    def evict_where(self, predicate) -> int:
        """Drop every entry whose ``(key, value)`` satisfies ``predicate``.

        The scan runs over a snapshot taken under the lock, so concurrent
        ``get``/``put`` calls during a sweep neither crash the iteration
        nor deadlock on re-entry; entries inserted mid-sweep are simply
        not considered.  Returns the number of entries dropped.
        """
        with self._lock:
            snapshot = list(self._entries.items())
        doomed = [key for key, value in snapshot if predicate(key, value)]
        dropped = 0
        with self._lock:
            for key in doomed:
                if self._entries.pop(key, _MISSING) is not _MISSING:
                    dropped += 1
        return dropped

    def snapshot(self) -> list:
        """A point-in-time copy of every ``(key, value)`` entry, in LRU
        order (least recent first).

        This is the persistence surface: the compile service pickles the
        snapshot to disk and :meth:`load`\\ s it back on restart, so the
        on-disk memo and the in-memory cache share one invalidation path
        — whatever :meth:`invalidate`/:meth:`evict_where` dropped before
        the snapshot simply is not in it.
        """
        with self._lock:
            return list(self._entries.items())

    def load(self, entries) -> int:
        """Install ``(key, value)`` pairs (a prior :meth:`snapshot`).

        Existing entries win LRU-recency over loaded ones only when
        re-inserted later; loaded entries overwrite equal keys.  The
        cache is trimmed to ``maxsize`` afterwards (oldest first), so
        loading a snapshot from a larger cache cannot overflow this one.
        Returns the number of entries installed.
        """
        installed = 0
        evicted = 0
        with self._lock:
            for key, value in entries:
                self._entries[key] = value
                self._entries.move_to_end(key)
                installed += 1
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted:
            get_metrics().counter(f"cache.{self.name}.evictions").inc(evicted)
        return installed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                maxsize=self.maxsize,
                evictions=self._evictions,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_SEARCH_CACHE = SearchCache(maxsize=4096, name="search")
_AUTOTUNE_CACHE = SearchCache(maxsize=512, name="autotune")


def get_search_cache() -> SearchCache:
    """The process-wide mapping-search memo."""
    return _SEARCH_CACHE


def get_autotune_cache() -> SearchCache:
    """The process-wide auto-tune memo."""
    return _AUTOTUNE_CACHE


def clear_caches() -> None:
    """Reset both caches and their statistics (tests, benchmarks).

    Also drops the vectorized engine's candidate-structure memo so a
    full reset leaves no process-wide search state behind.
    """
    _SEARCH_CACHE.clear()
    _AUTOTUNE_CACHE.clear()
    from .vectorized import clear_batch_memo

    clear_batch_memo()
    from ..service.api import clear_digest_memo

    clear_digest_memo()
