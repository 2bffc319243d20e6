"""Tests for the caches: the one LRU class, its tiers, and refits."""

from __future__ import annotations

import pytest

from repro.lru import LRUCache
from repro.query import PointQuery
from repro.serving import InferenceCache, MemoryGovernor, PlanCache


class TestLRUCache:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing", default="d") == "d"
        assert cache.get(("point", ())) is None

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

    def test_size_function_is_the_byte_rule_and_only_governed_inserts_pay_it(self):
        measured = []

        def size(totals):
            measured.append(totals)
            return 128 + 96 * len(totals)  # the join-side rule

        cache = LRUCache(4, size=size)
        cache.put("ungoverned", {("x",): 1.0})
        assert measured == [] and cache.byte_size == 0
        cache.governor = MemoryGovernor(10**6)
        cache.put("governed", {("y",): 2.0, ("z",): 3.0})
        assert cache.byte_size == (128 + 96) + (128 + 2 * 96)
        cache.put("governed", {})  # an overwrite replaces the entry's bytes
        assert cache.byte_size == (128 + 96) + 128

    def test_attaching_a_governor_measures_what_is_held(self):
        cache = LRUCache(8, size=len)
        for key in range(3):
            cache.put(key, "x" * (key + 1))
        governor = MemoryGovernor(10**6)
        governor.register("strings", cache)
        assert cache.governor is governor
        assert cache.byte_size == 1 + 2 + 3 == governor.total_bytes()
        cache.governor = None
        assert cache.byte_size == 0

    def test_rejected_admission_drops_the_stale_value(self):
        cache = LRUCache(4, size=len)
        cache.governor = MemoryGovernor(100)
        cache.put("k", "old")
        assert cache.byte_size == 3
        cache.put("k", "x" * 101)  # larger than the whole budget: refused
        assert "k" not in cache
        assert cache.byte_size == 0
        assert cache.get("k") is None

    def test_evict_entries_counts_and_frees_bytes(self):
        cache = LRUCache(8, size=lambda value: value)
        for key, nbytes in enumerate([11, 22, 33, 44]):
            cache.put(key, nbytes)
        cache.governor = MemoryGovernor(10**6)
        assert cache.evict_entries(2) == 11 + 22  # the two least recent
        assert cache.statistics.evictions == 2
        assert [key for key, _ in cache.entries()] == [2, 3]
        assert cache.byte_size == 77
        assert cache.evict_entries(10) == 77  # no more than it holds
        assert cache.statistics.evictions == 4 and len(cache) == 0

    def test_clear_drops_every_entry_and_its_bytes(self):
        cache = LRUCache(4)
        cache.governor = MemoryGovernor(10**6)
        cache.put(("point", (("A", 0),)), 42.0)
        assert cache.byte_size > 0
        cache.clear()
        assert cache.get(("point", (("A", 0),))) is None
        assert len(cache) == 0 and cache.byte_size == 0

    def test_join_side_totals_eviction_and_statistics(self):
        cache = LRUCache(2)
        cache.put(("g", "s1"), {("x",): 1.0})
        cache.put(("g", "s2"), {("y",): 2.0})
        assert cache.get(("g", "s1")) == {("x",): 1.0}  # promotes s1
        cache.put(("g", "s3"), {("z",): 3.0})  # evicts s2
        assert cache.get(("g", "s2")) is None
        assert cache.get(("g", "s3")) == {("z",): 3.0}
        assert cache.statistics.as_dict() == {
            "hits": 2, "misses": 1, "evictions": 1, "hit_rate": 2 / 3,
        }
        assert len(cache) == 2

    def test_sql_text_plan_roundtrip_and_clear(self, serving_themis):
        planner = serving_themis.model.planner
        cache = PlanCache(8)
        sql = "SELECT COUNT(*) FROM s WHERE A = 0"
        assert cache.get(sql) is None
        cache.put(sql, planner.plan(sql))
        assert cache.get(sql).sql == sql
        cache.clear()
        assert cache.get(sql) is None


class TestInferenceCache:
    @pytest.fixture
    def inference_cache(self, fresh_serving_themis):
        # The factor cache lives on the model's shared inference engine: a
        # facade of its own starts it cold, so hit/miss counts are
        # deterministic.
        return InferenceCache(fresh_serving_themis.model.bayes_net_evaluator)

    @staticmethod
    def _observed_point(cache, assignment):
        """One point answer with its network work accounted to ``cache``."""
        with cache.observed():
            return cache.evaluator.point(assignment)

    def test_observed_point_matches_evaluator(self, fresh_serving_themis, inference_cache):
        evaluator = fresh_serving_themis.model.bayes_net_evaluator
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
        self, fresh_serving_themis, inference_cache
    ):
        batch = [{"A": 0}, {"A": 1}, {"A": 2, "B": 0}, {"B": 0, "A": 1}]
        plans = [fresh_serving_themis.plan(PointQuery(a)) for a in batch]
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

    def test_refit_fronts_the_new_model_and_keeps_session_counters(
        self, fresh_serving_themis
    ):
        session = fresh_serving_themis.serve()
        group_bys = [
            "SELECT A, COUNT(*) FROM sample GROUP BY A",
            "SELECT B, COUNT(*) FROM sample GROUP BY B",
        ]
        session.execute_batch(group_bys)
        old = session.inference_cache
        assert (old.statistics.hits, old.statistics.misses) == (0, 1)
        model = fresh_serving_themis.refit()
        session.execute_batch(group_bys)
        cache = session.inference_cache
        # A new cache over the new model's evaluator, whose samples start
        # cold; the hit/miss counters are the session's, across the refit.
        assert cache is not old and cache.evaluator is model.bayes_net_evaluator
        assert cache.statistics is old.statistics
        assert (cache.statistics.hits, cache.statistics.misses) == (0, 2)
        assert cache.samples_warm
