"""The cross-sweep memo: key sensitivity and cache behavior.

Serving a memoized search result is only safe if the key covers
*everything* the result depends on — any constraint field, the sizes,
the grid, the DOP window, and the keep_all flag.  These tests
pin that contract: equal inputs collide, every single-input perturbation
separates.
"""

import pytest

from repro.analysis.cache import (
    LRUCache,
    clear_caches,
    constraint_set_fingerprint,
    get_search_cache,
    search_cache_key,
)
from repro.analysis.constraints import (
    BlockSizeFloor,
    CoalesceDimX,
    ConstraintSet,
    SpanAllRequired,
)
from repro.analysis.dop import DopWindow
from repro.analysis.search import search_mapping
from repro.observability import capture


def make_cset(coalesce_weight=2.0, coalesce_level=1):
    cset = ConstraintSet()
    cset.add(SpanAllRequired(True, "local", "sync", level=1, reason="sync"))
    cset.add(CoalesceDimX(
        False, "local", "coalesce", level=coalesce_level,
        weight=coalesce_weight,
    ))
    cset.add(BlockSizeFloor(False, "global", "floor", weight=1.0))
    return cset


def base_key(**overrides):
    params = dict(
        cset=make_cset(),
        num_levels=2,
        sizes=(128, 4096),
        block_sizes=(1, 32, 1024),
        window=DopWindow(),
        keep_all=False,
    )
    params.update(overrides)
    return search_cache_key(**params)


def test_equal_inputs_equal_keys():
    assert base_key() == base_key()
    assert constraint_set_fingerprint(make_cset()) == \
        constraint_set_fingerprint(make_cset())


@pytest.mark.parametrize("override", [
    dict(cset=make_cset(coalesce_weight=3.0)),
    dict(cset=make_cset(coalesce_level=0)),
    dict(sizes=(128, 4097)),
    dict(block_sizes=(1, 64, 1024)),
    dict(window=DopWindow(min_dop=1)),
    dict(keep_all=True),
])
def test_any_input_change_changes_key(override):
    assert base_key(**override) != base_key()


def test_constraint_order_is_part_of_identity():
    """The fingerprint follows insertion order, so two orderings of one
    set are two memo entries; the search result is the same for both."""
    a = ConstraintSet()
    a.add(CoalesceDimX(False, "local", "c0", level=0, weight=1.0))
    a.add(BlockSizeFloor(False, "global", "floor", weight=2.0))
    b = ConstraintSet()
    b.add(BlockSizeFloor(False, "global", "floor", weight=2.0))
    b.add(CoalesceDimX(False, "local", "c0", level=0, weight=1.0))
    assert constraint_set_fingerprint(a) != constraint_set_fingerprint(b)


def test_lru_eviction_and_stats():
    cache = LRUCache(2)
    cache.put(("a",), 1)
    cache.put(("b",), 2)
    assert cache.get(("a",)) == 1  # refreshes "a"
    assert cache.put(("c",), 3) == 1  # evicts "b", the least recently used
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) == 1
    assert cache.get(("c",)) == 3
    assert len(cache) == 2

    # The memo counts nothing; the search counts its reads in the
    # process registry.
    clear_caches()
    with capture() as observation:
        for _ in range(4):
            search_mapping(2, make_cset(), (128, 4096))
    counters = observation.metrics.to_dict()["counters"]
    assert counters["cache.search.hits"] == 3
    assert counters["cache.search.misses"] == 1
    assert len(get_search_cache()) == 1


def test_clear_caches_resets_global_memo():
    clear_caches()
    cache = get_search_cache()
    cache.put(("k",), "v")
    assert len(cache) == 1
    clear_caches()
    assert len(cache) == 0
