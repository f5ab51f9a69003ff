"""Routing primitives: the consistent-hash ring, and the one bounded
memo as the router's hot LRU tier."""

import threading
from collections import Counter

import pytest

from repro.analysis.cache import LRUCache
from repro.service.router import DEFAULT_RING_REPLICAS, HashRing


class TestHashRing:
    def test_placement_is_deterministic(self):
        ring_a = HashRing(["b0", "b1", "b2"])
        ring_b = HashRing(["b2", "b0", "b1"])  # insertion order irrelevant
        for i in range(256):
            key = f"digest-{i}"
            assert ring_a.node_for(key) == ring_b.node_for(key)

    def test_placement_stable_across_processes(self):
        # The ring hashes with SHA-256, not the process-seeded hash();
        # pin a few placements so an accidental switch to hash() (which
        # would shuffle shard ownership every boot) fails loudly.
        ring = HashRing(["b0", "b1", "b2"])
        placed = {f"key-{i}": ring.node_for(f"key-{i}") for i in range(64)}
        rebuilt = HashRing(["b0", "b1", "b2"])
        assert placed == {k: rebuilt.node_for(k) for k in placed}

    def test_shares_roughly_balanced(self):
        ring = HashRing(["b0", "b1", "b2", "b3"])
        counts = Counter(ring.node_for(f"sample-{i}") for i in range(4096))
        assert sorted(counts) == ["b0", "b1", "b2", "b3"]
        for node, count in counts.items():
            # 64 virtual replicas keep each of 4 nodes within a loose
            # band around the ideal 25%.
            assert 0.10 < count / 4096 < 0.45, (node, counts)

    def test_preference_pinned(self):
        # Failover orders over a three-backend fleet, pinned so a change
        # to the ring's hashing or tie-break shows up as a diff.
        ring = HashRing(["backend-0", "backend-1", "backend-2"])
        assert ring.preference("alpha") == [
            "backend-2", "backend-0", "backend-1"
        ]
        assert ring.preference("beta") == [
            "backend-1", "backend-2", "backend-0"
        ]
        assert ring.preference("delta") == [
            "backend-1", "backend-0", "backend-2"
        ]
        assert ring.preference("digest-0") == [
            "backend-0", "backend-2", "backend-1"
        ]

    def test_preference_lists_every_node_once(self):
        ring = HashRing(["b0", "b1", "b2"])
        for i in range(64):
            order = ring.preference(f"key-{i}")
            assert sorted(order) == ["b0", "b1", "b2"]
            assert order[0] == ring.node_for(f"key-{i}")

    def test_preference_limit_truncates(self):
        ring = HashRing(["b0", "b1", "b2"])
        assert len(ring.preference("key", limit=2)) == 2
        assert ring.preference("key", limit=1) == [ring.node_for("key")]
        assert len(ring.preference("key", limit=99)) == 3

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.preference("key") == []
        with pytest.raises(ValueError):
            ring.node_for("key")

    def test_bad_replicas_rejected(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)
        assert DEFAULT_RING_REPLICAS >= 16


class TestLRUCache:
    def test_get_put_and_eviction_order(self):
        lru = LRUCache(2)
        assert lru.put("a", 1) == 0
        assert lru.put("b", 2) == 0
        assert lru.get("a") == 1  # refresh 'a'; 'b' is now oldest
        assert lru.put("c", 3) == 1
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3

    def test_overwrite_does_not_grow(self):
        lru = LRUCache(2)
        assert lru.put("a", 1) == 0
        assert lru.put("a", 2) == 0
        assert len(lru) == 1
        assert lru.get("a") == 2

    def test_capacity_zero_disables_tier(self):
        lru = LRUCache(0)
        assert not lru.enabled
        assert lru.put("a", 1) == 0
        assert lru.get("a") is None
        assert len(lru) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_clear(self):
        lru = LRUCache(4)
        for i in range(3):
            lru.put(str(i), i)
        assert lru.clear() == 3
        assert len(lru) == 0
        assert lru.clear() == 0

    def test_thread_safety_under_contention(self):
        lru = LRUCache(32)
        errors = []

        def hammer(seed: int) -> None:
            try:
                for i in range(500):
                    key = str((seed * 31 + i) % 64)
                    lru.put(key, i)
                    value = lru.get(key)
                    assert value is None or isinstance(value, int)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(lru) <= 32
