"""Unit tests for the fingerprint-keyed result cache."""

import pytest

from repro.service import ResultCache


class TestResultCache:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("fp") is None
        cache.put("fp", '{"r": 1}', "d1")
        assert cache.get("fp") == '{"r": 1}'
        assert "fp" in cache
        assert len(cache) == 1
        stats = cache.statistics()
        assert stats["hits"] == 1.0
        assert stats["misses"] == 1.0
        assert stats["hit_fraction"] == 0.5

    def test_by_digest(self):
        cache = ResultCache()
        cache.put("fp", '{"r": 1}', "d1")
        assert cache.by_digest("d1") == '{"r": 1}'
        assert cache.by_digest("ghost") is None

    def test_by_digest_counts_no_lookup_but_refreshes_lru(self):
        cache = ResultCache(capacity=2)
        cache.put("a", "ra", "da")
        cache.put("b", "rb", "db")
        assert cache.by_digest("da") == "ra"   # refresh a; b is now LRU
        assert cache.by_digest("ghost") is None
        stats = cache.statistics()
        assert (stats["hits"], stats["misses"]) == (0.0, 0.0)
        cache.put("c", "rc", "dc")
        assert "b" not in cache
        assert "a" in cache

    def test_put_is_idempotent(self):
        cache = ResultCache()
        cache.put("fp", '{"r": 1}', "d1")
        cache.put("fp", '{"r": 1}', "d1")
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", "ra", "da")
        cache.put("b", "rb", "db")
        assert cache.get("a") == "ra"   # refresh a; b is now LRU
        cache.put("c", "rc", "dc")
        assert "b" not in cache
        assert cache.get("a") == "ra"
        assert cache.get("c") == "rc"
        assert cache.by_digest("db") is None
        assert cache.statistics()["evictions"] == 1.0
