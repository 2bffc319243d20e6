"""Tests for the batch-aware plan optimizer and the per-plan batch path.

The optimizer's rewrites — dedup, predicate normalization and pushdown,
shared masks, multi-query group-by fusion — are mask-preserving, and their
counters prove they fire on direct :func:`optimize_batch` calls.  No served
batch builds a schedule: a batch runs plan by plan, and its answers are
**bit-identical** to per-plan execution at every layer (columnar executor,
evaluators, serving batches).  Every equality below is exact (``==``),
never a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.plan import (
    ColumnarExecutor,
    OptimizerStats,
    PlanCompiler,
    normalize_plan,
    normalize_predicates,
    optimize_batch,
)
from repro.plan.executor import UNIT_GROUP_BY, UNIT_SCALAR
from repro.query import (
    AggregateFunction,
    AggregateSpec,
    Comparison,
    GroupByQuery,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
)
from repro.query.workload import MixedQueryWorkload
from repro.schema import Attribute, Domain, Relation, Schema
from repro.serving.cache import LRUCache, ResultCache


def build_relation(n_rows: int = 3000, seed: int = 11) -> Relation:
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


def canonical(compiler, *predicates):
    return tuple(compiler.canonical_predicate(p) for p in predicates)


class TestNormalizePredicates:
    def test_duplicates_and_reorderings_share_one_normal_form(self, compiler):
        forward = canonical(
            compiler,
            Predicate("a", Comparison.EQ, 3),
            Predicate("b", Comparison.LE, 4),
        )
        backward = canonical(
            compiler,
            Predicate("b", Comparison.LE, 4),
            Predicate("a", Comparison.EQ, 3),
            Predicate("a", Comparison.EQ, 3),  # duplicate conjunct
        )
        assert normalize_predicates(forward) == normalize_predicates(backward)

    def test_tautological_conjunct_is_dropped(self, compiler):
        base = canonical(compiler, Predicate("a", Comparison.EQ, 3))
        padded = canonical(
            compiler,
            Predicate("a", Comparison.EQ, 3),
            Predicate("b", Comparison.GE, -100),  # below the domain: always true
            Predicate("c", Comparison.NE, 99),  # out of domain: always true
        )
        assert normalize_predicates(padded) == normalize_predicates(base)

    def test_unsatisfiable_conjunct_absorbs_the_conjunction(self, compiler):
        predicates = canonical(
            compiler,
            Predicate("a", Comparison.EQ, 3),
            Predicate("b", Comparison.EQ, 99),  # out of domain: always false
        )
        normalized = normalize_predicates(predicates)
        assert len(normalized) == 1
        assert normalized[0].attribute == "b"

    def test_redundant_ordered_bounds_are_tightened(self, compiler):
        loose = canonical(
            compiler,
            Predicate("a", Comparison.LE, 3),
            Predicate("a", Comparison.LE, 6),
            Predicate("b", Comparison.GE, 1),
            Predicate("b", Comparison.GE, 3),
        )
        tight = canonical(
            compiler,
            Predicate("a", Comparison.LE, 3),
            Predicate("b", Comparison.GE, 3),
        )
        assert normalize_predicates(loose) == normalize_predicates(tight)

    def test_mixed_strict_and_inclusive_bounds_compare_on_codes(self, compiler):
        # a < 4 admits codes {0..3}; a <= 5 admits {0..5}: the strict bound
        # is tighter and must be the survivor.
        mixed = canonical(
            compiler,
            Predicate("a", Comparison.LT, 4),
            Predicate("a", Comparison.LE, 5),
        )
        normalized = normalize_predicates(mixed)
        assert len(normalized) == 1
        assert normalized[0].comparison is Comparison.LT

    def test_equality_implies_ordered_bounds(self, compiler):
        padded = canonical(
            compiler,
            Predicate("a", Comparison.EQ, 3),
            Predicate("a", Comparison.LE, 6),
            Predicate("a", Comparison.GE, 0),
        )
        base = canonical(compiler, Predicate("a", Comparison.EQ, 3))
        assert normalize_predicates(padded) == normalize_predicates(base)

    def test_equality_violating_a_bound_keeps_both(self, compiler):
        # a = 5 AND a <= 2 matches nothing; normalization must not "repair"
        # the contradiction by dropping the bound.
        contradiction = canonical(
            compiler,
            Predicate("a", Comparison.EQ, 5),
            Predicate("a", Comparison.LE, 2),
        )
        assert len(normalize_predicates(contradiction)) == 2

    def test_normalization_preserves_the_conjunction_mask(self, relation, compiler):
        cases = [
            (Predicate("a", Comparison.LE, 3), Predicate("a", Comparison.LE, 6)),
            (Predicate("a", Comparison.EQ, 3), Predicate("a", Comparison.GE, 0)),
            (Predicate("b", Comparison.EQ, 2), Predicate("c", Comparison.NE, 99)),
            (Predicate("a", Comparison.EQ, 5), Predicate("a", Comparison.LE, 2)),
            (Predicate("d", Comparison.EQ, 1), Predicate("e", Comparison.EQ, 99)),
        ]
        executor = ColumnarExecutor(relation, compiler=compiler)
        for case in cases:
            raw = canonical(compiler, *case)
            normalized = normalize_predicates(raw)
            raw_mask = executor.mask_cache.conjunction_mask(raw)
            norm_mask = executor.mask_cache.conjunction_mask(normalized)
            assert np.array_equal(raw_mask, norm_mask)


class TestNormalizePlan:
    def test_normalized_plan_keeps_the_canonical_key(self, compiler):
        query = ScalarAggregateQuery(
            predicates=(
                Predicate("a", Comparison.LE, 3),
                Predicate("a", Comparison.LE, 6),
            )
        )
        plan = compiler.compile(query)
        stats = OptimizerStats()
        normalized = normalize_plan(plan, stats)
        assert normalized.key == plan.key
        assert stats.predicates_pushed_down == 1
        assert len(normalized.predicates) == 1
        assert plan.query is normalized.query

    def test_already_normal_plan_is_returned_unchanged(self, compiler):
        plan = compiler.compile(
            GroupByQuery(("a",), predicates=(Predicate("b", Comparison.EQ, 2),))
        )
        assert normalize_plan(plan) is plan


class TestOptimizeBatch:
    def test_exact_duplicates_share_a_slot(self, compiler):
        query = GroupByQuery(("a",), predicates=(Predicate("b", Comparison.EQ, 2),))
        schedule = optimize_batch([compiler.compile(query)] * 3)
        assert len(schedule.slots) == 1
        assert schedule.assignments == [0, 0, 0]
        assert schedule.stats.plans_deduped == 2

    def test_redundant_conjunct_variants_dedup_across_distinct_keys(self, compiler):
        base = ScalarAggregateQuery(predicates=(Predicate("a", Comparison.LE, 3),))
        padded = ScalarAggregateQuery(
            predicates=(
                Predicate("a", Comparison.LE, 3),
                Predicate("a", Comparison.LE, 6),
            )
        )
        plans = [compiler.compile(base), compiler.compile(padded)]
        assert plans[0].key != plans[1].key  # distinct cache identities...
        schedule = optimize_batch(plans)
        assert len(schedule.slots) == 1  # ...one execution
        assert schedule.stats.plans_deduped == 1
        assert schedule.stats.predicates_pushed_down == 1

    def test_point_and_count_scalar_fuse_into_one_reduction(self, compiler):
        point = compiler.compile(PointQuery({"a": 3, "b": 2}))
        scalar = compiler.compile(
            ScalarAggregateQuery(
                predicates=(
                    Predicate("a", Comparison.EQ, 3),
                    Predicate("b", Comparison.EQ, 2),
                )
            )
        )
        schedule = optimize_batch([point, scalar])
        assert len(schedule.slots) == 1
        assert schedule.units[0].kind == UNIT_SCALAR

    def test_shared_prefix_aggregates_fuse_into_one_unit(self, compiler):
        predicates = (Predicate("c", Comparison.LE, 2),)
        family = [
            GroupByQuery(("a", "b"), predicates=predicates),
            GroupByQuery(
                ("a", "b"),
                aggregate=AggregateSpec(AggregateFunction.SUM, "d"),
                predicates=predicates,
            ),
            GroupByQuery(
                ("a", "b"),
                aggregate=AggregateSpec(AggregateFunction.AVG, "d"),
                predicates=predicates,
            ),
        ]
        other = GroupByQuery(("e",), predicates=predicates)
        scalar = ScalarAggregateQuery(predicates=predicates)
        plans = [compiler.compile(q) for q in family + [other, scalar]]
        schedule = optimize_batch(plans)
        kinds = [unit.kind for unit in schedule.units]
        assert kinds.count(UNIT_GROUP_BY) == 2  # the (a, b) family plus `other`
        assert kinds.count(UNIT_SCALAR) == 1
        fused = next(u for u in schedule.units if len(u.slots) == 3)
        assert fused.group_keys == ("a", "b")
        assert schedule.stats.groupby_fusions == 2
        # All five slots evaluate the same normalized filter; the shared
        # mask stage computes it once — four evaluations avoided.
        assert schedule.stats.masks_shared == 4


class TestColumnarBitIdentity:
    def _assert_batches_match(self, relation, queries):
        """The batch equals one-at-a-time execution; returns the counters a
        schedule of the same plans would report."""
        reference_executor = ColumnarExecutor(relation)
        reference = [reference_executor.execute(query) for query in queries]
        executor = ColumnarExecutor(relation)
        assert executor.execute_batch(queries) == reference
        return optimize_batch([executor.compiler.compile(query) for query in queries]).stats

    def test_mixed_workload_with_duplicates(self, relation):
        workload = MixedQueryWorkload(relation, seed=3).generate(6, 6, 6)
        queries = [entry.query for entry in workload]
        queries = queries + queries[::3]  # exact duplicates
        stats = self._assert_batches_match(relation, queries)
        assert stats.plans_deduped >= len(workload) // 3

    def test_overlapping_filters_and_disjoint_group_bys(self, relation):
        shared = (Predicate("a", Comparison.LE, 4), Predicate("b", Comparison.EQ, 2))
        queries = [
            # One family over a shared prefix, every aggregate function.
            GroupByQuery(("c", "d"), predicates=shared),
            GroupByQuery(
                ("c", "d"),
                aggregate=AggregateSpec(AggregateFunction.SUM, "e"),
                predicates=shared,
            ),
            GroupByQuery(
                ("c", "d"),
                aggregate=AggregateSpec(AggregateFunction.AVG, "e"),
                predicates=shared,
            ),
            # Overlapping (but not equal) filter over the same prefix.
            GroupByQuery(("c", "d"), predicates=shared[:1]),
            # Disjoint group-by columns, same filter.
            GroupByQuery(("e",), predicates=shared),
            # Reordered + padded variants of the shared filter.
            GroupByQuery(("c", "d"), predicates=shared[::-1]),
            GroupByQuery(
                ("c", "d"),
                predicates=shared + (Predicate("a", Comparison.LE, 6),),
            ),
            # Scalars and points over the same masks.
            ScalarAggregateQuery(predicates=shared),
            ScalarAggregateQuery(
                aggregate=AggregateSpec(AggregateFunction.AVG, "e"),
                predicates=shared,
            ),
            PointQuery({"a": 1, "b": 2}),
            PointQuery({"b": 2, "a": 1}),
        ]
        stats = self._assert_batches_match(relation, queries)
        assert stats.groupby_fusions > 0
        assert stats.plans_deduped > 0
        assert stats.predicates_pushed_down > 0
        assert stats.masks_shared > 0

    def test_repeated_dashboard_families_match_per_plan(self, relation):
        # Families alternate between two group-by prefixes, each with its
        # own filter: five fusable aggregates, a padded-filter COUNT and
        # three scalars; the whole burst repeats four times.
        count = AggregateSpec(AggregateFunction.COUNT)
        queries = []
        for family in range(4):
            group_by = (("a", "b"), ("c", "d"))[family % 2]
            rest = [name for name in relation.attribute_names if name not in group_by]
            first, second = rest[family % len(rest)], rest[(family + 1) % len(rest)]
            measure = rest[(family + 2) % len(rest)]
            shared = (
                Predicate(first, Comparison.IN, (0, 1, 2)),
                Predicate(second, Comparison.LE, 2),
            )
            padded = shared + (Predicate(second, Comparison.LE, 3),)
            queries += [GroupByQuery(group_by, aggregate=count, predicates=shared)]
            queries += [
                GroupByQuery(
                    group_by, aggregate=AggregateSpec(function, target), predicates=shared
                )
                for function in (AggregateFunction.SUM, AggregateFunction.AVG)
                for target in (group_by[0], measure)
            ]
            queries += [GroupByQuery(group_by, aggregate=count, predicates=padded)]
            queries += [
                ScalarAggregateQuery(aggregate=aggregate, predicates=shared)
                for aggregate in (
                    count,
                    AggregateSpec(AggregateFunction.SUM, group_by[0]),
                    AggregateSpec(AggregateFunction.AVG, measure),
                )
            ]
        queries = queries * 4
        stats = self._assert_batches_match(relation, queries)
        assert len(queries) - stats.plans_deduped <= 4 * 8  # one slot per distinct plan
        assert stats.predicates_pushed_down > 0
        assert stats.groupby_fusions > 0
        assert stats.masks_shared > 0

    def test_unfiltered_and_unsatisfiable_plans(self, relation):
        queries = [
            GroupByQuery(("a",)),
            GroupByQuery(
                ("a",), aggregate=AggregateSpec(AggregateFunction.SUM, "b")
            ),
            ScalarAggregateQuery(),
            ScalarAggregateQuery(predicates=(Predicate("a", Comparison.EQ, 99),)),
            GroupByQuery(("b",), predicates=(Predicate("a", Comparison.EQ, 99),)),
        ]
        self._assert_batches_match(relation, queries)

    def test_optimized_batch_matches_legacy_reference(self, relation):
        """End to end: fused kernels agree with the embedded per-plan loop
        over a workload exercising every fusion path, exactly."""
        workload = MixedQueryWorkload(relation, seed=19).generate(4, 8, 8)
        queries = [entry.query for entry in workload] * 2
        executor = ColumnarExecutor(relation)
        per_plan = [executor.execute(query) for query in queries]
        optimized = executor.execute_batch(queries)
        for left, right in zip(optimized, per_plan):
            assert left == right


class TestServingOptimized:
    WORKLOAD = [
        "SELECT COUNT(*) FROM sample WHERE A = 0",
        "SELECT COUNT(*) FROM sample WHERE A = 0 AND B = 1",
        "SELECT COUNT(*) FROM sample WHERE B = 1 AND A = 0",
        "SELECT A, COUNT(*) FROM sample GROUP BY A",
        "SELECT A, SUM(B) FROM sample GROUP BY A",
        "SELECT A, AVG(B) FROM sample GROUP BY A",
        "SELECT B, COUNT(*) FROM sample WHERE C = 1 GROUP BY B",
        "SELECT B, AVG(A) FROM sample WHERE C = 1 GROUP BY B",
        "SELECT AVG(B) FROM sample WHERE A = 0",
        "SELECT COUNT(*) FROM sample WHERE A = 2 AND B = 2 AND C = 0",
        "SELECT A, COUNT(*) FROM sample GROUP BY A",  # exact duplicate
    ]

    def test_batch_matches_single_session_and_singles(self, serving_themis):
        optimized = serving_themis.serve().execute_batch(self.WORKLOAD)
        single_session = serving_themis.serve()
        per_plan = [single_session.execute(statement) for statement in self.WORKLOAD]
        singles = [serving_themis.query(statement) for statement in self.WORKLOAD]
        for left, right, single in zip(optimized, per_plan, singles):
            assert left.result == right
            assert left.result == single

    def test_a_schedule_would_fuse_what_a_served_batch_runs_plan_by_plan(
        self, serving_themis
    ):
        session = serving_themis.serve()
        batch = session.execute_batch(self.WORKLOAD)
        assert batch.results() == [serving_themis.query(sql) for sql in self.WORKLOAD]
        # The rewrites a schedule of the same plans would fire; no served
        # batch builds one.
        schedule = optimize_batch([serving_themis.plan(sql) for sql in self.WORKLOAD])
        assert schedule.stats.groupby_fusions > 0
        assert schedule.stats.masks_shared > 0

    def test_warm_batch_serves_from_the_result_cache(self, serving_themis):
        session = serving_themis.serve()
        session.execute_batch(self.WORKLOAD)
        warm = session.execute_batch(self.WORKLOAD)
        # Deduplicated fan-outs inherit from_result_cache from the first
        # occurrence, so on a warm batch every outcome is a cache hit.
        assert warm.cache_hits == len(self.WORKLOAD)

    def test_refit_mid_session_keeps_bit_identity(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        before = session.execute_batch(self.WORKLOAD)
        assert len(before) == len(self.WORKLOAD)
        fresh_serving_themis.refit()
        after = session.execute_batch(self.WORKLOAD)
        singles = [fresh_serving_themis.query(statement) for statement in self.WORKLOAD]
        assert after.results() == singles
        assert session.statistics.invalidations == 1

    def test_mixed_workload_batch_matches_singles(self, serving_themis):
        workload = MixedQueryWorkload(
            serving_themis.model.weighted_sample, seed=5
        ).generate(4, 4, 4)
        queries = [entry.query for entry in workload] + [
            entry.sql for entry in workload
        ]
        batch = serving_themis.serve().execute_batch(queries)
        for outcome, query in zip(batch, queries):
            assert outcome.result == serving_themis.query(query)


class TestEvaluatorBatches:
    """``run`` over routed plans, compared with the per-query kernels."""

    def test_hybrid_run_matches_per_query(self, serving_themis):
        hybrid = serving_themis.model.hybrid_evaluator
        queries = [
            GroupByQuery(("A",)),
            GroupByQuery(("A",), aggregate=AggregateSpec(AggregateFunction.SUM, "B")),
            GroupByQuery(("A", "B"), predicates=(Predicate("C", Comparison.EQ, 1),)),
            GroupByQuery(("B",), predicates=(Predicate("C", Comparison.EQ, 1),)),
        ]
        batched = hybrid.run([serving_themis.plan(query) for query in queries])
        for result, query in zip(batched, queries):
            assert result == hybrid.group_by(query)

    def test_bn_run_matches_per_query(self, serving_themis):
        evaluator = serving_themis.model.bayes_net_evaluator
        queries = [
            GroupByQuery(("A",)),
            GroupByQuery(("A",), aggregate=AggregateSpec(AggregateFunction.AVG, "B")),
            GroupByQuery(("B", "C")),
            ScalarAggregateQuery(predicates=(Predicate("A", Comparison.LE, 1),)),
            PointQuery({"A": 1, "B": 2}),
        ]
        batched = evaluator.run([serving_themis.plan(query) for query in queries])
        assert batched == [evaluator.execute(query) for query in queries]

    def test_sample_run_matches_per_query(self, serving_themis):
        evaluator = serving_themis.model.sample_evaluator
        queries = [
            GroupByQuery(("A",)),
            ScalarAggregateQuery(predicates=(Predicate("A", Comparison.LE, 1),)),
            PointQuery({"A": 1, "B": 2}),
        ]
        batched = evaluator.run([serving_themis.plan(query) for query in queries])
        assert batched == [evaluator.execute(query) for query in queries]

    def test_empty_batches(self, serving_themis):
        assert serving_themis.model.hybrid_evaluator.run([]) == []
        assert serving_themis.model.bayes_net_evaluator.run([]) == []
        assert serving_themis.model.sample_evaluator.run([]) == []


class TestNormalizedServedPlans:
    def test_raw_and_normalized_plan_share_the_canonical_key(self, serving_themis):
        sql = "SELECT AVG(B) FROM sample WHERE A <= 1 AND A <= 2 AND C = 1"
        explained = serving_themis.query(sql, explain=True)
        normalized = normalize_plan(explained.plan)
        assert normalized.key == explained.plan.key
        assert len(normalized.predicates) < len(explained.plan.predicates)
        assert explained.result == serving_themis.query(sql)

    @pytest.mark.parametrize("mode", ["optimized", "analyse"])
    def test_an_unknown_explain_mode_raises(self, serving_themis, mode):
        from repro.exceptions import ThemisError

        with pytest.raises(ThemisError, match="explain mode"):
            serving_themis.query("SELECT COUNT(*) FROM sample WHERE A = 0", explain=mode)


class TestLRUCachePeek:
    def test_peek_returns_without_touching_statistics(self):
        cache = LRUCache(capacity=4)
        cache.put("x", 41)
        hits, misses = cache.statistics.hits, cache.statistics.misses
        assert cache.peek("x") == 41
        assert cache.peek("missing") is None
        assert cache.peek("missing", "default") == "default"
        assert (cache.statistics.hits, cache.statistics.misses) == (hits, misses)

    def test_peek_does_not_promote_the_entry(self):
        cache = LRUCache(capacity=2)
        cache.put("old", 1)
        cache.put("new", 2)
        # A get() would promote "old" and evict "new"; peek must not.
        assert cache.peek("old") == 1
        cache.put("evictor", 3)
        assert "old" not in cache
        assert "new" in cache

    def test_contains_goes_through_peek(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        before = cache.statistics.as_dict()
        assert "a" in cache
        assert "b" not in cache
        assert cache.statistics.as_dict() == before

    def test_result_cache_peek_is_stat_free(self):
        cache = ResultCache(capacity=4)
        cache.put(("k",), 0.0)
        before = cache.statistics.as_dict()
        assert cache.peek(("k",)) == 0.0
        assert cache.peek(("missing",)) is None
        assert cache.statistics.as_dict() == before
        # The counted path still counts.
        assert cache.get(("k",)) == 0.0
        assert cache.statistics.hits == before["hits"] + 1
