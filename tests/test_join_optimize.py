"""Tests for join sides: the optimizer's side table and the served join path.

The load-bearing guarantee: a batch of join plans, run plan by plan with
each plan's sides resolved through the cross-batch join-side cache (a side
one plan computed answers the next plan's reference to it), is
**bit-identical** to per-plan execution at every layer (columnar executor,
evaluators, serving batches — including after a mid-session refit).  The
join-side fusion counters of a schedule are asserted on direct
:func:`optimize_batch` calls, which no served batch makes.  Every equality
below is exact (``==``), never a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.plan import (
    ColumnarExecutor,
    OptimizerStats,
    PlanCompiler,
    normalize_plan,
    optimize_batch,
    partitioned_grouped_weight_totals,
)
from repro.plan.optimize import UNIT_JOIN
from repro.query import (
    AggregateFunction,
    AggregateSpec,
    Comparison,
    GroupByQuery,
    JoinGroupByQuery,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
)
from repro.schema import Attribute, Domain, Relation, Schema
from repro.serving.cache import LRUCache, ResultCache


def build_relation(n_rows: int = 3000, seed: int = 23) -> Relation:
    rng = np.random.default_rng(seed)
    sizes = {"a": 8, "b": 6, "c": 5, "d": 4, "e": 3}
    schema = Schema(
        [Attribute(name, Domain(list(range(size)))) for name, size in sizes.items()]
    )
    columns = {
        name: rng.integers(0, size, size=n_rows, dtype=np.int64)
        for name, size in sizes.items()
    }
    weights = rng.uniform(0.1, 5.0, size=n_rows)
    return Relation(schema, columns, weights)


@pytest.fixture(scope="module")
def relation() -> Relation:
    return build_relation()


@pytest.fixture(scope="module")
def compiler(relation) -> PlanCompiler:
    return PlanCompiler(relation.schema)


def join_query(
    left_group="b",
    right_group="c",
    left_predicates=(),
    right_predicates=(),
    join_key="a",
) -> JoinGroupByQuery:
    return JoinGroupByQuery(
        left_join=join_key,
        right_join=join_key,
        left_group=left_group,
        right_group=right_group,
        left_predicates=tuple(left_predicates),
        right_predicates=tuple(right_predicates),
    )


FILTER = (Predicate("d", Comparison.LE, 2), Predicate("e", Comparison.GE, 1))


class TestFusedJoinSideKernel:
    def test_fused_totals_match_per_side_kernel(self, relation):
        executor = ColumnarExecutor(relation)
        plan = executor.compiler.compile(join_query(left_predicates=FILTER))
        masks = [
            executor.mask_cache.conjunction_mask(plan.join.left.child.predicates),
            None,
        ]
        fused = partitioned_grouped_weight_totals(relation, ("a", "b"), masks)
        for mask, totals in zip(masks, fused):
            assert totals == partitioned_grouped_weight_totals(relation, ("a", "b"), [mask])[0]

    def test_single_side_delegates_to_the_fused_kernel(self, relation):
        mask = relation.column("d") <= 1
        ((alone,),) = partitioned_grouped_weight_totals(relation, ("a", "c"), [mask])
        (stacked,), _ = partitioned_grouped_weight_totals(relation, ("a", "c"), [mask, None])
        assert alone and alone == stacked


class TestJoinSideSharing:
    def test_reordered_and_padded_side_filters_share_one_side(self, compiler):
        reordered = join_query(left_predicates=FILTER[::-1])
        padded = join_query(
            left_predicates=FILTER + (Predicate("d", Comparison.LE, 3),)
        )
        plans = [compiler.compile(q) for q in (join_query(left_predicates=FILTER), reordered, padded)]
        assert len({plan.key for plan in plans}) == 2  # padded has its own key
        schedule = optimize_batch(plans)
        # All three collapse to one slot; one left side, one (empty) right.
        assert len(schedule.slots) == 1
        assert schedule.stats.plans_deduped == 2
        assert len(schedule.join_sides) == 2

    def test_plans_sharing_a_side_schedule_it_once(self, compiler):
        queries = [
            join_query("b", "c", left_predicates=FILTER),
            join_query("b", "d", left_predicates=FILTER),  # same left side
            join_query("c", "b"),  # mirror of the unfiltered sides
        ]
        plans = [compiler.compile(q) for q in queries]
        schedule = optimize_batch(plans)
        (unit,) = [u for u in schedule.units if u.kind == UNIT_JOIN]
        assert unit.slots == (0, 1, 2)
        # Distinct sides: (a,b)+FILTER, (a,c)+(), (a,d)+(), (a,c)... the
        # mirror's left (a,c) and right (a,b) reuse scheduled key sets only
        # when the filters match too: (a,c) empty is shared with slot 0's
        # right side; (a,b) empty is new.
        assert len(schedule.join_sides) == 4
        assert schedule.stats.join_sides_fused > 0
        # Every slot's side references point into the shared table.
        for left, right in unit.sides:
            assert 0 <= left < len(schedule.join_sides)
            assert 0 <= right < len(schedule.join_sides)

    def test_identical_left_and_right_sides_compute_once(self, compiler):
        plan = compiler.compile(join_query("b", "b"))
        schedule = optimize_batch([plan])
        assert len(schedule.join_sides) == 1
        assert schedule.stats.join_sides_fused == 1


class TestColumnarJoinBitIdentity:
    def _queries(self):
        return [
            join_query("b", "c", left_predicates=FILTER),
            join_query("b", "c", left_predicates=FILTER[::-1]),
            join_query("b", "d", left_predicates=FILTER),
            join_query("c", "b", right_predicates=FILTER),
            join_query("b", "b"),
            join_query("b", "c", left_predicates=FILTER),  # exact duplicate
            # Non-join shapes riding along in the same batch.
            GroupByQuery(("b",), predicates=FILTER),
            ScalarAggregateQuery(
                aggregate=AggregateSpec(AggregateFunction.COUNT), predicates=FILTER
            ),
            PointQuery({"d": 1}),
        ]

    def test_join_batch_matches_per_plan(self, relation):
        queries = self._queries()
        reference = [ColumnarExecutor(relation).execute(q) for q in queries]
        stats = OptimizerStats()
        executor = ColumnarExecutor(relation)
        assert executor.execute_batch(queries, stats=stats) == reference
        # A cold executor: every hit is a side an earlier plan of this batch
        # computed.
        assert stats.join_side_cache_hits > 0
        assert stats.join_sides_fused == 1  # the self-join's one shared side
        schedule = optimize_batch([executor.compiler.compile(q) for q in queries])
        assert schedule.stats.join_sides_fused > 0
        assert schedule.stats.plans_deduped > 0

    def test_second_batch_hits_the_join_side_cache_bit_identically(self, relation):
        queries = self._queries()
        executor = ColumnarExecutor(relation)
        first = executor.execute_batch(queries)
        stats = OptimizerStats()
        second = executor.execute_batch(queries, stats=stats)
        assert second == first
        assert stats.join_side_cache_hits > 0
        assert executor.join_side_cache.statistics.hits > 0

    def test_every_side_pairing_matches_per_plan_cold_and_warm(self, relation):
        # Four filtered sides over one join key, combined in every ordered
        # pairing, plus reordered and padded side filters and a GROUP BY per
        # side; the burst repeats three times.
        sides = []
        for index, group in enumerate("abab"):
            first, second = "abcd"[(index + 1) % 4], "abcd"[(index + 2) % 4]
            sides.append(
                (
                    group,
                    (
                        Predicate(first, Comparison.LE, index + 1),
                        Predicate(second, Comparison.GE, 1),
                    ),
                )
            )

        def pair(left, right, left_predicates=None):
            return join_query(
                sides[left][0],
                sides[right][0],
                sides[left][1] if left_predicates is None else left_predicates,
                sides[right][1],
                join_key="e",
            )

        queries = [pair(left, right) for left in range(4) for right in range(4)]
        for index, (group, predicates) in enumerate(sides):
            padded = predicates + (
                Predicate(predicates[0].attribute, Comparison.LE, predicates[0].value + 1),
            )
            queries += [
                pair(index, (index + 1) % 4, predicates[::-1]),
                pair(index, (index + 1) % 4, padded),
                GroupByQuery((group,), predicates=predicates),
            ]
        queries = queries * 3
        reference = ColumnarExecutor(relation)
        per_plan = [reference.execute(query) for query in queries]
        executor = ColumnarExecutor(relation)
        cold_stats, warm_stats = OptimizerStats(), OptimizerStats()
        assert executor.execute_batch(queries, stats=cold_stats) == per_plan
        assert executor.execute_batch(queries, stats=warm_stats) == per_plan
        assert cold_stats.join_sides_fused > 0  # pairings over one group key
        assert warm_stats.join_side_cache_hits > cold_stats.join_side_cache_hits > 0
        schedule = optimize_batch([executor.compiler.compile(q) for q in queries])
        assert schedule.stats.join_sides_fused > 0
        assert schedule.stats.plans_deduped >= 2 * len(queries) // 3

    def test_empty_and_join_only_batches(self, relation):
        executor = ColumnarExecutor(relation)
        assert executor.execute_batch([]) == []
        queries = [join_query("b", "c"), join_query("b", "c")]
        results = executor.execute_batch(queries)
        assert results[0] == results[1]
        assert results[0] == ColumnarExecutor(relation).execute(queries[0])


class TestEvaluatorJoinBatches:
    QUERIES = [
        JoinGroupByQuery("A", "A", "B", "C"),
        JoinGroupByQuery(
            "A", "A", "B", "C", left_predicates=(Predicate("B", Comparison.EQ, 1),)
        ),
        JoinGroupByQuery(
            "A", "A", "C", "B", right_predicates=(Predicate("B", Comparison.EQ, 1),)
        ),
    ]

    def _plans(self, themis):
        return [themis.plan(query) for query in self.QUERIES]

    def test_bn_join_run_matches_per_query(self, serving_themis):
        evaluator = serving_themis.model.bayes_net_evaluator
        batched = evaluator.run(self._plans(serving_themis))
        for result, query in zip(batched, self.QUERIES):
            assert result == evaluator.execute(query)

    def test_hybrid_join_run_matches_per_query(self, serving_themis):
        hybrid = serving_themis.model.hybrid_evaluator
        stats = OptimizerStats()
        batched = hybrid.run(self._plans(serving_themis), stats=stats)
        for result, query in zip(batched, self.QUERIES):
            assert result == hybrid.execute(query)
        # The second and third plans each reuse an unfiltered side of the
        # first, whatever the stack's cache held before.
        assert stats.join_side_cache_hits >= 2


class TestServingJoinBatches:
    WORKLOAD = [
        JoinGroupByQuery("A", "A", "B", "C"),
        JoinGroupByQuery(
            "A", "A", "B", "C", left_predicates=(Predicate("B", Comparison.EQ, 1),)
        ),
        JoinGroupByQuery(  # padded variant: distinct key, same execution
            "A",
            "A",
            "B",
            "C",
            left_predicates=(
                Predicate("B", Comparison.EQ, 1),
                Predicate("B", Comparison.EQ, 1),
            ),
        ),
        JoinGroupByQuery("A", "A", "B", "C"),  # exact duplicate
        GroupByQuery(("A",)),
        PointQuery({"A": 0}),
    ]

    def test_join_batch_matches_single_session_and_singles(self, serving_themis):
        optimized = serving_themis.serve().execute_batch(self.WORKLOAD)
        single_session = serving_themis.serve()
        per_plan = [single_session.execute(query) for query in self.WORKLOAD]
        singles = [serving_themis.query(query) for query in self.WORKLOAD]
        for left, right, single in zip(optimized, per_plan, singles):
            assert left.result == right
            assert left.result == single

    def test_join_counters_reach_batch_and_session_statistics(self, serving_themis):
        session = serving_themis.serve()
        batch = session.execute_batch(self.WORKLOAD)
        assert batch.results() == [serving_themis.query(query) for query in self.WORKLOAD]
        assert batch.optimizer["join_side_cache_hits"] > 0
        assert session.statistics.as_dict()["optimizer"] == batch.optimizer
        # Join-side fusion is a schedule's rewrite; no served batch builds one.
        schedule = optimize_batch([serving_themis.plan(query) for query in self.WORKLOAD])
        assert schedule.stats.join_sides_fused > 0
        # A fresh pairing over already-computed sides hits the cross-batch
        # join-side cache (the repeated plans themselves are result-cache
        # hits, so the cache probe needs a new plan key).
        fresh = JoinGroupByQuery(
            "A",
            "A",
            "B",
            "C",
            left_predicates=(Predicate("B", Comparison.EQ, 1),),
            right_predicates=(Predicate("B", Comparison.EQ, 1),),
        )
        other = JoinGroupByQuery(
            "A", "A", "B", "C", right_predicates=(Predicate("B", Comparison.EQ, 1),)
        )
        second = session.execute_batch([fresh, other])
        assert second.optimizer["join_side_cache_hits"] > 0
        # Session-lifetime counters fold in every batch this session served
        # (the model's engine-level cache may already be warm from earlier
        # sessions over the same fitted model, so the first batch can hit
        # too).
        assert (
            session.statistics.as_dict()["optimizer"]["join_side_cache_hits"]
            == batch.optimizer["join_side_cache_hits"]
            + second.optimizer["join_side_cache_hits"]
        )
        # Hybrid joins run over the hybrid stack: its join-side cache holds
        # the sides, and the sample's own stays empty.
        caches = session.cache_statistics()
        assert caches["hybrid_join_side_cache"]["cached_sides"] > 0
        assert caches["hybrid_join_side_cache"]["hits"] > 0
        assert caches["join_side_cache"]["cached_sides"] == 0

    def test_refit_invalidates_the_join_side_cache(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        before = session.execute_batch(self.WORKLOAD)
        old_cache = fresh_serving_themis.model.hybrid_evaluator.stack.join_side_cache
        assert len(old_cache.entries()) > 0
        fresh_serving_themis.refit()
        assert fresh_serving_themis.model.hybrid_evaluator.stack is None
        after = session.execute_batch(self.WORKLOAD)
        new_cache = fresh_serving_themis.model.hybrid_evaluator.stack.join_side_cache
        # A refit rebuilds the stack: fresh cache object, no stale sides.
        assert new_cache is not old_cache
        singles = [fresh_serving_themis.query(query) for query in self.WORKLOAD]
        assert after.results() == singles
        assert len(before) == len(after)

    def test_warm_join_batch_serves_from_the_result_cache(self, serving_themis):
        session = serving_themis.serve()
        session.execute_batch(self.WORKLOAD)
        warm = session.execute_batch(self.WORKLOAD)
        assert warm.cache_hits == len(self.WORKLOAD)
        assert not any(warm.optimizer.values())


class TestNormalizedJoinPlan:
    def test_normalized_join_plan_shares_the_raw_plan_key(self, serving_themis):
        padded = JoinGroupByQuery(
            "A",
            "A",
            "B",
            "C",
            left_predicates=(
                Predicate("B", Comparison.EQ, 1),
                Predicate("B", Comparison.EQ, 1),
            ),
        )
        explained = serving_themis.query(padded, explain=True)
        normalized = normalize_plan(explained.plan)
        assert normalized.key == explained.plan.key
        assert len(normalized.join.left.child.predicates) < len(
            explained.plan.join.left.child.predicates
        )
        assert explained.result == serving_themis.query(padded)


class TestCacheEntries:
    def test_lru_entries_snapshot_is_stat_free_and_non_mutating(self):
        cache = LRUCache(capacity=2)
        cache.put("old", 1)
        cache.put("new", 2)
        before = cache.statistics.as_dict()
        assert cache.entries() == [("old", 1), ("new", 2)]
        assert cache.statistics.as_dict() == before
        # entries() must not promote "old": it is still evicted first.
        cache.put("evictor", 3)
        assert "old" not in cache
        assert "new" in cache

    def test_result_cache_entries_snapshot(self):
        cache = ResultCache(capacity=4)
        cache.put(("k1",), 1.0)
        cache.put(("k2",), 2.0)
        before = cache.statistics.as_dict()
        assert cache.entries() == [(("k1",), 1.0), (("k2",), 2.0)]
        assert cache.statistics.as_dict() == before

    def test_session_cache_statistics_report_entry_counts(self, serving_themis):
        session = serving_themis.serve()
        session.execute_batch(
            ["SELECT COUNT(*) FROM sample WHERE A = 0", GroupByQuery(("A",))]
        )
        caches = session.cache_statistics()
        assert caches["result_cache"]["entries"] == len(
            session.result_cache.entries()
        )
        assert caches["result_cache"]["entries"] > 0
        assert caches["plan_cache"]["entries"] > 0
        inference_entries = caches["inference_cache"]["entries"]
        assert set(inference_entries) == {"factors", "samples_warm"}
        assert inference_entries["samples_warm"] is True
