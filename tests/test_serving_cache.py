"""Tests for the serving caches: LRU behaviour, tiers, and invalidation."""

from __future__ import annotations

import pytest

from repro.query import PointQuery
from repro.serving import (
    InferenceCache,
    LRUCache,
    PlanCache,
    QueryPlanner,
    ResultCache,
)


class TestLRUCache:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing", default="d") == "d"

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.statistics.evictions == 1

    def test_put_existing_key_updates_without_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.statistics.evictions == 0

    def test_hit_miss_accounting(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("nope")
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.hit_rate == 0.5

    def test_clear_keeps_statistics(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.statistics.hits == 1


class TestResultCache:
    def test_lookup_miss_returns_none(self):
        cache = ResultCache(4)
        assert cache.lookup(("point", ())) is None

    def test_store_and_lookup(self):
        cache = ResultCache(4)
        cache.store(("point", (("A", 0),)), 42.0)
        assert cache.lookup(("point", (("A", 0),))) == 42.0

    def test_capacity_evicts_oldest_plan(self):
        cache = ResultCache(2)
        for index in range(3):
            cache.store(("point", index), float(index))
        assert cache.lookup(("point", 0)) is None
        assert cache.lookup(("point", 2)) == 2.0

    def test_invalidate_drops_entries_and_moves_generation(self):
        cache = ResultCache(4, generation=1)
        cache.store("key", 1.0)
        cache.invalidate(generation=2)
        assert cache.lookup("key") is None
        assert cache.generation == 2


class TestPlanCache:
    def test_roundtrip_and_invalidate(self, serving_themis):
        model = serving_themis.model
        planner = QueryPlanner(model.sample.schema, model)
        cache = PlanCache(8)
        sql = "SELECT COUNT(*) FROM s WHERE A = 0"
        assert cache.get(sql) is None
        cache.put(sql, planner.plan(sql))
        assert cache.get(sql).sql == sql
        cache.invalidate()
        assert cache.get(sql) is None


class TestInferenceCache:
    @pytest.fixture
    def inference_cache(self, serving_themis):
        cache = InferenceCache(serving_themis.model.bayes_net_evaluator)
        # The factor cache lives on the model's shared inference engine and
        # other tests may have warmed it; start cold so hit/miss counts are
        # deterministic.
        cache.engine.invalidate(cache.generation)
        return cache

    @staticmethod
    def _observed_point(cache, assignment):
        """One point answer with its network work accounted to ``cache``."""
        with cache.observed():
            return cache.evaluator.point(assignment)

    def test_observed_point_matches_evaluator(self, serving_themis, inference_cache):
        evaluator = serving_themis.model.bayes_net_evaluator
        assignment = {"A": 1, "B": 2}
        assert self._observed_point(inference_cache, assignment) == evaluator.point(
            assignment
        )

    def test_point_signature_factor_is_memoized(self, inference_cache):
        first = self._observed_point(inference_cache, {"A": 1})
        second = self._observed_point(inference_cache, {"A": 1})
        assert first == second
        assert inference_cache.statistics.hits == 1
        assert inference_cache.statistics.misses == 1
        # A *different* assignment with the same evidence signature reuses
        # the eliminated factor too: per-signature caching, not per-answer.
        self._observed_point(inference_cache, {"A": 2})
        assert inference_cache.statistics.hits == 2
        assert inference_cache.statistics.misses == 1

    def test_run_pays_one_elimination_per_signature(
        self, serving_themis, inference_cache
    ):
        batch = [{"A": 0}, {"A": 1}, {"A": 2, "B": 0}, {"B": 0, "A": 1}]
        plans = [serving_themis.plan(PointQuery(a)).logical for a in batch]
        with inference_cache.observed() as work:
            answers = inference_cache.evaluator.run(plans)
        # One factor lookup per signature group ({A} and {A,B}), both cold.
        assert work == {
            "elimination_passes": 2,
            "factor_cache_hits": 0,
            "factor_cache_misses": 2,
        }
        assert inference_cache.statistics.misses == 2
        assert inference_cache.statistics.hits == 0
        # Work outside an observed block is not this cache's.
        assert answers == [inference_cache.evaluator.point(a) for a in batch]
        assert inference_cache.statistics.hits == 0
        # The same batch again touches both factors without re-eliminating.
        with inference_cache.observed() as work:
            inference_cache.evaluator.run(plans)
        assert work["elimination_passes"] == 0
        assert inference_cache.statistics.hits == 2

    def test_warm_samples_materializes_once(self, inference_cache):
        samples = inference_cache.warm_samples()
        assert len(samples) == 3  # K from the fixture's config
        assert inference_cache.samples_warm
        again = inference_cache.warm_samples()
        assert [id(s) for s in samples] == [id(s) for s in again]

    def test_invalidate_rebinds_and_resets(self, fresh_serving_themis):
        cache = InferenceCache(fresh_serving_themis.model.bayes_net_evaluator)
        self._observed_point(cache, {"A": 0})
        cache.warm_samples()
        new_model = fresh_serving_themis.refit()
        cache.invalidate(new_model.bayes_net_evaluator, generation=99)
        assert cache.generation == 99
        assert not cache._samples_warm
        assert cache.evaluator is new_model.bayes_net_evaluator
        # Memoized state was dropped: next lookups are misses again.
        before = cache.statistics.misses
        self._observed_point(cache, {"A": 0})
        assert cache.statistics.misses == before + 1
