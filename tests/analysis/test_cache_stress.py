"""Invalidation and concurrency for the one bounded memo.

Every in-process memo is an :class:`~repro.analysis.cache.LRUCache`
shared by concurrent searches and requests.  These pin its contract
under contention: ``pop`` tells a stored ``None`` from an absent key, no
``RuntimeError: dictionary changed size during iteration``, no
deadlock, and no overflow past ``capacity``.
"""

import sys
import threading

from repro.analysis.cache import LRUCache
from repro.analysis.constraints import ConstraintSet
from repro.analysis.search import span_options_for_levels
from repro.analysis.vectorized import _CandidateStructure, _dop_table_cached
from repro.config import BLOCK_SIZE_CANDIDATES


class TestCacheBasics:
    def test_invalidate_present_and_absent(self):
        cache = LRUCache(8)
        cache.put(("k",), 1)
        assert cache.pop(("k",))
        assert not cache.pop(("k",))
        assert cache.get(("k",)) is None

    def test_invalidate_distinguishes_stored_none(self):
        cache = LRUCache(8)
        cache.put(("k",), None)
        assert ("k",) in cache
        assert cache.pop(("k",))
        assert ("k",) not in cache
        assert not cache.pop(("k",))


class TestCacheStress:
    THREADS = 8
    ITERATIONS = 400

    def test_concurrent_mutation_during_eviction_sweeps(self):
        cache = LRUCache(64)
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(self.ITERATIONS):
                    key = ("stress", worker, i % 40)
                    cache.put(key, i)
                    value = cache.get(key)
                    assert value is None or isinstance(value, int)
                    cache.get(("stress", (worker + 1) % self.THREADS, i % 40))
                    if i % 7 == 0:
                        cache.pop(key)
                    assert len(cache) <= cache.capacity
            except Exception as exc:  # noqa: BLE001 - the test's whole point
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "stress test deadlocked"
        assert not errors, f"concurrent mutation raised: {errors[:3]}"
        assert len(cache) <= cache.capacity

    def test_concurrent_clear_and_put(self):
        cache = LRUCache(32)
        errors = []

        def writer() -> None:
            try:
                for i in range(self.ITERATIONS):
                    cache.put(("w", i % 50), i)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def clearer() -> None:
            try:
                for _ in range(self.ITERATIONS // 10):
                    cache.clear()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=clearer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(cache) <= cache.capacity


class TestDopMemoRace:
    """Concurrent searches over one candidate structure (a multi-worker
    ``repro serve``, or two in-process fleet backends) share its DOP
    memo."""

    THREADS = 4
    CALLS = 500

    def test_concurrent_dop_tables_on_one_structure(self):
        struct = _CandidateStructure(
            2,
            tuple(BLOCK_SIZE_CANDIDATES),
            span_options_for_levels(ConstraintSet(), 2),
        )
        errors = []

        def search(worker: int) -> None:
            try:
                for i in range(self.CALLS):
                    # Every call has its own sizes: a miss that evicts.
                    _dop_table_cached(struct, (64 + worker, 64 + i))
            except Exception as exc:  # noqa: BLE001 - the test's whole point
                errors.append(exc)

        threads = [
            threading.Thread(target=search, args=(w,))
            for w in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "deadlocked"
        assert not errors, f"concurrent DOP tables raised: {errors[:3]}"
        assert len(struct.dop_memo) <= 8
