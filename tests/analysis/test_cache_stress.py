"""The process's memos: what they share and what they do not keep.

Every in-process memo is an :class:`~repro.analysis.cache.LRUCache`
shared by concurrent searches and requests.  These pin its contract
under contention: no ``RuntimeError: dictionary changed size during
iteration``, no deadlock, and no overflow past ``capacity``.
Concurrent searches share one candidate structure, and no search result
outlives its caller.
"""

import gc
import sys
import threading
import weakref

from repro.analysis import analyze_program, autotune_mapping
from repro.analysis.cache import LRUCache
from repro.analysis.search import _effective_block_sizes, search_mapping
from repro.analysis.vectorized import _structure_for, clear_batch_memo
from repro.config import BLOCK_SIZE_CANDIDATES
from repro.gpusim import TESLA_K20C


class TestCacheBasics:
    def test_lru_eviction(self):
        cache = LRUCache(2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refreshes "a"
        # Evicts "b", the least recently used.
        assert cache.put(("c",), 3) == 1
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3
        assert len(cache) == 2


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


class TestSharedStructureRace:
    """Concurrent searches over one candidate structure (a multi-worker
    ``repro serve``, or two in-process fleet backends) share its lazy
    ``shared`` expansions."""

    THREADS = 4
    CALLS = 25

    def test_concurrent_searches_on_one_structure(self, sum_rows_program):
        ka = analyze_program(sum_rows_program, R=256, C=256).kernel(0)
        grid = _effective_block_sizes(ka.depth, BLOCK_SIZE_CANDIDATES)

        def sizes(worker: int, i: int):
            # Every call has its own sizes.
            return (64 + worker, 64 + i)

        def summary(result):
            return (
                result.mapping, result.score, result.dop,
                result.candidates_total, result.candidates_feasible,
                result.ranked, result.strategy,
            )

        serial = {
            (w, i): summary(
                search_mapping(ka.depth, ka.constraints, sizes(w, i))
            )
            for w in range(self.THREADS)
            for i in range(self.CALLS)
        }
        # Start from an empty structure so the threads race to build its
        # expansions.
        clear_batch_memo()
        struct = _structure_for(ka.depth, ka.constraints, grid)
        assert not struct.shared
        results = {}
        errors = []

        def search(worker: int) -> None:
            try:
                for i in range(self.CALLS):
                    results[(worker, i)] = summary(search_mapping(
                        ka.depth, ka.constraints, sizes(worker, i)
                    ))
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
        assert not errors, f"concurrent searches raised: {errors[:3]}"
        assert _structure_for(ka.depth, ka.constraints, grid) is struct
        assert struct.shared, "the searches did not share the expansions"
        assert results == serial


class TestNothingOutlivesTheCompile:
    """Each kernel's search runs once per compile; no process-wide memo
    keeps its result (or the auto-tuner's) alive afterwards."""

    def test_search_and_autotune_results_are_collected(
        self, sum_rows_program
    ):
        ka = analyze_program(sum_rows_program, R=256, C=256).kernel(0)
        search = ka.select_mapping()
        tuned = autotune_mapping(ka, TESLA_K20C, block_sizes=(32, 64))
        refs = [weakref.ref(search), weakref.ref(tuned)]
        del search, tuned
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
