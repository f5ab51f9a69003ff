"""Sweep-memo persistence: defensive loads, one shared invalidation path."""

import os
import pickle

from repro.analysis.cache import get_search_cache
from repro.analysis.constraints import ConstraintSet
from repro.analysis.search import search_mapping
from repro.ir.serialize import PIPELINE_VERSION
from repro.service.memo import MEMO_VERSION, load_memo, memo_path, save_memo


class TestMemoPersistence:
    def test_save_load_round_trip(self, tmp_path):
        cache_dir = str(tmp_path)
        search = get_search_cache()
        search.clear()
        search.put(("memo-test", 1), "value")
        try:
            path = save_memo(cache_dir)
            assert path.exists()
            # Only the search memo is persisted: the service never runs
            # the autotuner.
            assert set(pickle.loads(path.read_bytes())) == {
                "version", "pipeline_version", "search",
            }
            search.clear()
            restored = load_memo(cache_dir)
            assert restored == {"search": 1}
            assert search.get(("memo-test", 1)) == "value"
        finally:
            search.clear()

    def test_missing_file_is_empty_restore(self, tmp_path):
        assert load_memo(str(tmp_path)) == {"search": 0}

    def test_corrupt_file_discarded(self, tmp_path):
        path = memo_path(str(tmp_path))
        path.write_bytes(b"not a pickle")
        assert load_memo(str(tmp_path)) == {"search": 0}
        assert not path.exists(), "corrupt memo should be deleted"

    def test_version_skew_discarded(self, tmp_path):
        path = memo_path(str(tmp_path))
        payload = {
            "version": MEMO_VERSION + 1,
            "pipeline_version": 1,
            "search": [],
        }
        path.write_bytes(pickle.dumps(payload))
        assert load_memo(str(tmp_path)) == {"search": 0}
        assert not path.exists()

    def test_memo_from_before_ranked_discarded(self, tmp_path):
        """Version-1 memos hold search results without ``ranked``, which
        provenance reads: they are discarded, never served."""
        search = get_search_cache()
        search.clear()
        try:
            search_mapping(2, ConstraintSet(), (64, 64))
            path = save_memo(str(tmp_path))
            payload = pickle.loads(path.read_bytes())
            for _, result in payload["search"]:
                del result.__dict__["ranked"]
            payload["version"] = 1
            path.write_bytes(pickle.dumps(payload))
            search.clear()
            assert load_memo(str(tmp_path)) == {"search": 0}
            assert not path.exists()
        finally:
            search.clear()

    def test_malicious_pickle_is_discarded_not_executed(self, tmp_path):
        # pickle.load resolves and calls arbitrary globals; the memo
        # loader must treat a planted memo.pkl (shared/checked-out cache
        # dir) as corrupt, not as code to run.
        marker = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.system, (f"touch {marker}",))

        path = memo_path(str(tmp_path))
        path.write_bytes(pickle.dumps(Evil()))
        assert load_memo(str(tmp_path)) == {"search": 0}
        assert not marker.exists(), "unpickling must not execute globals"
        assert not path.exists(), "hostile memo should be deleted"

    def test_malformed_payload_shape_discarded(self, tmp_path):
        # A version-correct pickle whose entries have the wrong shape
        # raises TypeError/ValueError during install; still just a miss.
        payload = {
            "version": MEMO_VERSION,
            "pipeline_version": PIPELINE_VERSION,
            "search": 42,  # not an iterable of (key, value) pairs
        }
        path = memo_path(str(tmp_path))
        path.write_bytes(pickle.dumps(payload))
        assert load_memo(str(tmp_path)) == {"search": 0}
        assert not path.exists()

    def test_evicted_entries_absent_from_next_snapshot(self, tmp_path):
        # The service persists via snapshot(), so whatever evict_where
        # dropped in-memory is dropped on disk too: one invalidation path.
        cache_dir = str(tmp_path)
        search = get_search_cache()
        search.clear()
        try:
            search.put(("stale",), 1)
            search.put(("fresh",), 2)
            search.evict_where(lambda key, value: key == ("stale",))
            save_memo(cache_dir)
            search.clear()
            load_memo(cache_dir)
            assert search.get(("stale",)) is None
            assert search.get(("fresh",)) == 2
        finally:
            search.clear()
