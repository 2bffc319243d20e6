"""Tests for the unified logical-plan IR and its vectorized columnar kernels.

The heart of this file is bit-identity: the historical filter-then-reduce
engine is embedded verbatim as ``LegacyWeightedQueryEngine`` and every query
shape (point, scalar, group-by, join-group-by) must produce *exactly* the
same floats through the compiled-plan columnar kernels, on every workload.
The remaining classes cover the compiler round-trip (SQL text -> AST ->
plan -> canonical key), the predicate-mask cache, routing identity with the
hybrid evaluator, the explain hook, and network-routed scalars.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import hybrid_reference
from repro.core import OpenWorldEvaluator
from repro.exceptions import QueryError
from repro.plan import (
    ROUTE_BAYES_NET,
    ROUTE_HYBRID,
    ROUTE_SAMPLE,
    CanonicalPredicate,
    ColumnarExecutor,
    MaskCache,
    PlanCompiler,
    resolve_route,
)
from repro.query import (
    AggregateFunction,
    AggregateSpec,
    Comparison,
    GroupByQuery,
    JoinGroupByQuery,
    MixedQueryWorkload,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
)
from repro.query.workload import PointQueryWorkload
from repro.schema import Attribute, Domain, Relation, Schema
from repro.plan import kernels
from repro.serving.governance import MemoryGovernor
from repro.sql.engine import QueryResult
from repro.sql.parser import parse_sql


def build_correlated_population() -> Relation:
    """The same deterministic 3-attribute correlated population the shared
    conftest builds (duplicated here so the module imports standalone from
    any pytest rootdir)."""
    rng = np.random.default_rng(123)
    n = 4000
    a = rng.choice(3, size=n, p=[0.6, 0.3, 0.1])
    b_table = np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]])
    b = np.array([rng.choice(3, p=b_table[value]) for value in a])
    c_table = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    c = np.array([rng.choice(2, p=c_table[value]) for value in b])
    schema = Schema(
        [
            Attribute("A", Domain([0, 1, 2])),
            Attribute("B", Domain([0, 1, 2])),
            Attribute("C", Domain([0, 1])),
        ]
    )
    return Relation(schema, {"A": a, "B": b, "C": c})


# ----------------------------------------------------------------------
# The pre-refactor engine, embedded verbatim as the bit-identity reference.
# ----------------------------------------------------------------------
class LegacyWeightedQueryEngine:
    """The historical filter-then-reduce engine (pre-plan-IR), kept as the
    reference implementation the columnar kernels must match bit for bit."""

    def __init__(self, relation: Relation):
        self._relation = relation

    def point(self, assignment) -> float:
        if not assignment:
            raise QueryError("a point query needs at least one attribute-value pair")
        mask = self._relation.mask_equal(assignment)
        return float(self._relation.weights[mask].sum())

    def scalar(self, query: ScalarAggregateQuery) -> float:
        relation = self._apply_predicates(self._relation, query.predicates)
        weights = relation.weights
        function = query.aggregate.function
        if function is AggregateFunction.COUNT:
            return float(weights.sum())
        measure = self._numeric_column(relation, query.aggregate.attribute)
        if function is AggregateFunction.SUM:
            return float(np.sum(weights * measure))
        total = weights.sum()
        return float(np.sum(weights * measure) / total) if total > 0 else 0.0

    def group_by(self, query: GroupByQuery) -> QueryResult:
        relation = self._apply_predicates(self._relation, query.predicates)
        if relation.n_rows == 0:
            return QueryResult(query.group_by, {})
        group_index, unique_rows = relation.group_codes(query.group_by)
        weights = relation.weights
        n_groups = unique_rows.shape[0]
        weight_totals = np.bincount(group_index, weights=weights, minlength=n_groups)
        function = query.aggregate.function
        if function is AggregateFunction.COUNT:
            values = weight_totals
        else:
            measure = self._numeric_column(relation, query.aggregate.attribute)
            weighted_sums = np.bincount(
                group_index, weights=weights * measure, minlength=n_groups
            )
            if function is AggregateFunction.SUM:
                values = weighted_sums
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    values = np.where(
                        weight_totals > 0, weighted_sums / weight_totals, 0.0
                    )
        domains = [relation.schema[name].domain for name in query.group_by]
        results = {}
        for row, value, weight_total in zip(unique_rows, values, weight_totals):
            if weight_total <= 0:
                continue
            key = tuple(domain.decode(code) for domain, code in zip(domains, row))
            results[key] = float(value)
        return QueryResult(query.group_by, results)

    def join_group_by(self, query: JoinGroupByQuery) -> QueryResult:
        left = self._apply_predicates(self._relation, query.left_predicates)
        right = self._apply_predicates(self._relation, query.right_predicates)
        if left.n_rows == 0 or right.n_rows == 0:
            return QueryResult((query.left_group, query.right_group), {})
        left_counts = left.value_counts((query.left_join, query.left_group), weighted=True)
        right_counts = right.value_counts(
            (query.right_join, query.right_group), weighted=True
        )
        right_by_key = {}
        for (join_value, group_value), weight in right_counts.items():
            right_by_key.setdefault(join_value, []).append((group_value, weight))
        results = {}
        for (join_value, left_group_value), left_weight in left_counts.items():
            for right_group_value, right_weight in right_by_key.get(join_value, []):
                key = (left_group_value, right_group_value)
                results[key] = results.get(key, 0.0) + left_weight * right_weight
        return QueryResult((query.left_group, query.right_group), results)

    @staticmethod
    def _apply_predicates(relation, predicates):
        if not predicates:
            return relation
        mask = np.ones(relation.n_rows, dtype=bool)
        for predicate in predicates:
            mask &= predicate.mask(relation)
        return relation.filter_mask(mask)

    @staticmethod
    def _numeric_column(relation, attribute):
        values = relation.decoded_column(attribute)
        try:
            return np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            raise QueryError(
                f"attribute {attribute!r} is not numeric; cannot SUM/AVG over it"
            ) from None


@pytest.fixture(scope="module")
def weighted_relation() -> Relation:
    """A weighted relation with non-trivial weights (like a reweighted sample)."""
    population = build_correlated_population()
    rng = np.random.default_rng(42)
    sample = population.take(rng.choice(population.n_rows, size=900, replace=False))
    return sample.with_weights(rng.uniform(0.25, 7.5, size=sample.n_rows))


@pytest.fixture(scope="module")
def engines(weighted_relation):
    return (
        ColumnarExecutor(weighted_relation),
        LegacyWeightedQueryEngine(weighted_relation),
    )


class TestBitIdentityWithLegacyEngine:
    """Every shape, every workload entry: new floats == old floats."""

    def test_point_queries(self, weighted_relation, engines):
        new, legacy = engines
        workload = PointQueryWorkload(weighted_relation, seed=0)
        for attributes in (("A",), ("A", "B"), ("A", "B", "C")):
            for entry in workload.generate(attributes, "random", 20):
                assignment = entry.query.as_dict()
                assert new.execute(PointQuery(assignment)) == legacy.point(assignment)

    def test_out_of_domain_point_is_zero(self, engines):
        new, legacy = engines
        assert new.execute(PointQuery({"A": 99})) == legacy.point({"A": 99}) == 0.0

    def test_scalar_queries(self, weighted_relation, engines):
        new, legacy = engines
        workload = MixedQueryWorkload(weighted_relation, seed=1)
        entries = workload.scalar_queries(30, n_predicates=2)
        assert entries
        for entry in entries:
            assert new.execute(entry.query) == legacy.scalar(entry.query)

    def test_group_by_queries(self, weighted_relation, engines):
        new, legacy = engines
        workload = MixedQueryWorkload(weighted_relation, seed=2)
        entries = workload.group_by_queries(30, n_predicates=1)
        assert entries
        for entry in entries:
            assert new.execute(entry.query) == legacy.group_by(entry.query)

    def test_join_group_by_queries(self, weighted_relation, engines):
        new, legacy = engines
        queries = [
            JoinGroupByQuery(
                left_join="B", right_join="B", left_group="A", right_group="C"
            ),
            JoinGroupByQuery(
                left_join="A",
                right_join="A",
                left_group="B",
                right_group="C",
                left_predicates=(Predicate("C", Comparison.EQ, 1),),
            ),
            JoinGroupByQuery(
                left_join="C",
                right_join="C",
                left_group="A",
                right_group="B",
                left_predicates=(Predicate("A", Comparison.LE, 1),),
                right_predicates=(Predicate("B", Comparison.IN, (0, 2)),),
            ),
        ]
        for query in queries:
            assert new.execute(query) == legacy.join_group_by(query)

    def test_all_predicate_comparisons(self, weighted_relation, engines):
        new, legacy = engines
        comparisons = [
            Predicate("A", Comparison.EQ, 1),
            Predicate("A", Comparison.NE, 1),
            Predicate("A", Comparison.LT, 2),
            Predicate("A", Comparison.LE, 1),
            Predicate("A", Comparison.GT, 0),
            Predicate("A", Comparison.GE, 1),
            Predicate("A", Comparison.IN, (0, 2)),
            Predicate("A", Comparison.EQ, 99),   # out of domain
            Predicate("A", Comparison.NE, 99),   # out of domain
            Predicate("A", Comparison.IN, (98, 99)),
            Predicate("A", Comparison.LT, -1),   # below every domain value
            Predicate("A", Comparison.GT, -1),
        ]
        for predicate in comparisons:
            query = ScalarAggregateQuery(predicates=(predicate,))
            assert new.execute(query) == legacy.scalar(query)

    def test_zero_weight_groups_dropped_identically(self, weighted_relation):
        zeroed = weighted_relation.with_weights(
            np.where(weighted_relation.column("A") == 0, 0.0, weighted_relation.weights)
        )
        query = GroupByQuery(group_by=("A",))
        assert ColumnarExecutor(zeroed).execute(query) == LegacyWeightedQueryEngine(
            zeroed
        ).group_by(query)

    def test_empty_relation(self, weighted_relation):
        empty = weighted_relation.filter_mask(
            np.zeros(weighted_relation.n_rows, dtype=bool)
        )
        new, legacy = ColumnarExecutor(empty), LegacyWeightedQueryEngine(empty)
        query = GroupByQuery(group_by=("A", "B"))
        assert new.execute(query) == legacy.group_by(query) == QueryResult(("A", "B"), {})


class TestBitIdentityOnFittedModel:
    """Compile-then-run entry points equal the hybrid evaluator exactly, and
    both equal the hybrid rule over the reference engines."""

    def test_point_routing_identity(self, serving_themis, sparse_serving_themis):
        for themis in (serving_themis, sparse_serving_themis):
            hybrid = themis.model.hybrid_evaluator
            workload = PointQueryWorkload(themis.model.sample, seed=5)
            queries = [
                entry.query
                for attrs in (("A",), ("A", "B"), ("B", "C"))
                for entry in workload.generate(attrs, "random", 10)
            ]
            # Include tuples certain to miss the sparse sample (BN route).
            queries += [PointQuery({"A": 2, "B": 2, "C": 1}), PointQuery({"A": 1, "C": 0})]
            answers = [themis.query(query) for query in queries]
            assert answers == [hybrid.execute(query) for query in queries]
            assert answers == hybrid_reference(themis.model, queries)

    def test_scalar_and_group_by_routing_identity(self, serving_themis):
        hybrid = serving_themis.model.hybrid_evaluator
        workload = MixedQueryWorkload(serving_themis.model.weighted_sample, seed=6)
        queries = [
            entry.query
            for entry in workload.scalar_queries(12) + workload.group_by_queries(12)
        ]
        answers = [serving_themis.query(query) for query in queries]
        assert answers == [hybrid.execute(query) for query in queries]
        assert answers == hybrid_reference(serving_themis.model, queries)

    def test_bn_routed_scalar_identity(self, sparse_serving_themis):
        # An out-of-sample conjunction: the scalar routes to the network.
        query = ScalarAggregateQuery(
            predicates=(
                Predicate("A", Comparison.EQ, 2),
                Predicate("B", Comparison.EQ, 2),
                Predicate("C", Comparison.EQ, 1),
            )
        )
        plan = sparse_serving_themis.plan(query)
        hybrid = sparse_serving_themis.model.hybrid_evaluator
        assert sparse_serving_themis.query(query) == hybrid.execute(query)
        assert hybrid.execute(query) == hybrid_reference(sparse_serving_themis.model, [query])[0]
        if plan.route == ROUTE_BAYES_NET:  # sample truly misses the conjunction
            bn = sparse_serving_themis.model.bayes_net_evaluator
            assert sparse_serving_themis.query(query) == bn.execute(query)

    def test_join_group_by_identity(self, serving_themis):
        query = JoinGroupByQuery(
            left_join="B", right_join="B", left_group="A", right_group="C"
        )
        hybrid = serving_themis.model.hybrid_evaluator
        assert serving_themis.query(query) == hybrid.execute(query)
        assert hybrid.execute(query) == hybrid_reference(serving_themis.model, [query])[0]

    def test_sql_entry_point_identity(self, serving_themis):
        hybrid = serving_themis.model.hybrid_evaluator
        workload = MixedQueryWorkload(serving_themis.model.weighted_sample, seed=7)
        for entry in workload.generate(4, 4, 4):
            assert serving_themis.query(entry.sql) == hybrid.execute(
                parse_sql(entry.sql).query
            )


class TestRoundTripCanonicalKeys:
    """SQL text -> AST -> compiled plan -> canonical key is stable and equals
    the key of the equivalent hand-built query, for every workload shape."""

    @pytest.fixture(scope="class")
    def compiler(self) -> PlanCompiler:
        return PlanCompiler(build_correlated_population().schema)

    @pytest.fixture(scope="class")
    def workload(self):
        return MixedQueryWorkload(build_correlated_population(), seed=11).generate(
            n_point=8, n_scalar=9, n_group_by=9
        )

    def test_every_shape_is_covered(self, workload):
        assert {entry.shape for entry in workload} == {"point", "scalar", "group-by"}
        # ...and every predicate comparison shape, IN included.
        comparisons = {
            predicate.comparison
            for entry in workload
            for predicate in getattr(entry.query, "predicates", ())
        }
        assert Comparison.IN in comparisons
        assert any(c in comparisons for c in (Comparison.EQ,))
        assert any(
            c in comparisons
            for c in (Comparison.LE, Comparison.GE, Comparison.LT, Comparison.GT)
        )

    def test_sql_key_equals_hand_built_key(self, compiler, workload):
        for entry in workload:
            parsed = parse_sql(entry.sql).query
            assert compiler.compile(parsed).key == compiler.compile(entry.query).key, (
                f"round-trip key mismatch for {entry.sql!r}"
            )

    def test_keys_are_stable_across_compilers(self, workload):
        schema = build_correlated_population().schema
        first, second = PlanCompiler(schema), PlanCompiler(schema)
        for entry in workload:
            assert first.compile(entry.query).key == second.compile(entry.query).key

    def test_planner_key_is_the_compiled_key(self, workload):
        schema = build_correlated_population().schema
        first, second = PlanCompiler(schema), PlanCompiler(schema)
        for entry in workload:
            routed = resolve_route(first.compile(entry.query), None)
            assert routed.key == second.compile(entry.query).key

    def test_join_key_round_trip(self, compiler):
        query = JoinGroupByQuery(
            left_join="B",
            right_join="B",
            left_group="A",
            right_group="C",
            left_predicates=(Predicate("C", Comparison.EQ, 1),),
        )
        assert compiler.compile(query).key == compiler.compile(query).key
        reordered = JoinGroupByQuery(
            left_join="B",
            right_join="B",
            left_group="A",
            right_group="C",
            left_predicates=(Predicate("C", Comparison.EQ, 1),),
        )
        assert compiler.compile(reordered).key == compiler.compile(query).key


#: Two relations over one 6-value attribute, stacked by ``StackedMasks``.
_IN_SCHEMA = Schema([Attribute("X", Domain(list(range(6))))])
_IN_RELATIONS = [
    Relation(_IN_SCHEMA, {"X": np.random.default_rng(seed).integers(0, 6, size=n)})
    for seed, n in ((3, 150), (4, 90))
]
#: ``IN`` buckets as the compiler leaves them (sorted distinct codes), drawn
#: empty, single, whole-domain, and with codes at or above the domain size.
_IN_BUCKETS = st.one_of(
    st.just(()),
    st.integers(0, 7).map(lambda code: (code,)),
    st.just(tuple(range(6))),
    st.sets(st.integers(0, 8), max_size=8).map(lambda codes: tuple(sorted(codes))),
)


class TestMaskCache:
    @settings(max_examples=100, deadline=None)
    @given(buckets=st.lists(_IN_BUCKETS, min_size=1, max_size=6))
    def test_in_masks_equal_the_predicates_own_mask(self, buckets):
        """An ``IN`` mask, the OR of cached equality masks, == the
        predicate's own gather, through one cache and through a stack; the
        ORs leave the cached equality masks as they were."""
        caches = [MaskCache(relation) for relation in _IN_RELATIONS]
        stacked = kernels.StackedMasks(caches)
        for bucket in buckets:
            predicate = CanonicalPredicate("X", Comparison.IN, bucket)
            for cache, relation in zip(caches, _IN_RELATIONS):
                mask = cache.predicate_mask(predicate)
                assert mask.dtype == bool and np.array_equal(mask, predicate.mask(relation))
            assert np.array_equal(
                stacked.conjunction_mask((predicate,)),
                np.concatenate([predicate.mask(relation) for relation in _IN_RELATIONS]),
            )
        for cache, relation in zip(caches, _IN_RELATIONS):
            for (attribute, operator, code), mask in cache.lru.entries():
                assert (attribute, operator) == ("X", "=")
                assert np.array_equal(mask, relation.column("X") == code)

    def test_in_predicates_cache_only_equality_masks(self):
        """200 distinct ``IN`` predicates on one 50-value attribute cache no
        ``IN`` key and at most one equality mask per domain value; every
        admitted code is one lookup, a code an ``=`` predicate shares."""
        values = list(range(50))
        schema = Schema([Attribute("X", Domain(values))])
        rng = np.random.default_rng(17)
        relation = Relation(schema, {"X": rng.integers(0, 50, size=400)})
        compiler = PlanCompiler(schema)
        buckets = set()
        while len(buckets) < 200:
            size = int(rng.integers(2, 8))
            buckets.add(tuple(sorted(rng.choice(50, size=size, replace=False).tolist())))
        cache = MaskCache(relation)
        for bucket in sorted(buckets):
            predicate = compiler.canonical_predicate(Predicate("X", Comparison.IN, bucket))
            assert predicate.bucket == bucket
            assert np.array_equal(cache.predicate_mask(predicate), predicate.mask(relation))
        keys = [key for key, _ in cache.lru.entries()]
        assert not [key for key in keys if key[1] == Comparison.IN.value]
        assert cache.statistics()["cached_masks"] == len(keys) <= 50
        assert cache.hits + cache.misses == sum(len(bucket) for bucket in buckets)
        assert cache.misses == len(keys)
        equal = compiler.canonical_predicate(Predicate("X", Comparison.EQ, keys[0][2]))
        assert cache.predicate_mask(equal) is cache.lru.get(equal.key)
        assert cache.misses == len(keys)  # the ``=`` predicate hit the shared mask

    def test_warm_lookup_hits(self, weighted_relation):
        cache = MaskCache(weighted_relation)
        predicate = PlanCompiler(weighted_relation.schema).canonical_predicate(
            Predicate("A", Comparison.LE, 1)
        )
        first = cache.predicate_mask(predicate)
        second = cache.predicate_mask(predicate)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_conjunction_mask_cached_and_order_insensitive(self, weighted_relation):
        """The cache holds predicate masks; a conjunction is their AND, in
        either order, into an array the caller owns."""
        compiler = PlanCompiler(weighted_relation.schema)
        cache = MaskCache(weighted_relation)
        a = compiler.canonical_predicate(Predicate("A", Comparison.LE, 1))
        b = compiler.canonical_predicate(Predicate("B", Comparison.NE, 0))
        forward = cache.conjunction_mask((a, b))
        assert (cache.hits, cache.misses) == (0, 2)
        backward = cache.conjunction_mask((b, a))
        assert (cache.hits, cache.misses) == (2, 2)  # both single masks hit
        assert np.array_equal(backward, forward)
        assert np.array_equal(forward, a.mask(weighted_relation) & b.mask(weighted_relation))
        # Fresh arrays: scribbling on one corrupts neither the other nor the cache.
        assert backward is not forward
        expected = forward.copy()
        backward[:] = True
        forward[:] = False
        assert np.array_equal(cache.conjunction_mask((a, b)), expected)
        assert np.array_equal(cache.predicate_mask(a), a.mask(weighted_relation))
        # Predicates only: two entries, two masks' worth of bytes.
        assert len(cache) == 2 == cache.statistics()["cached_masks"]
        cache.lru.governor = MemoryGovernor(10**9)
        assert cache.lru.byte_size == 2 * (weighted_relation.n_rows + 96)
        # One predicate is answered with the cached mask itself; none with None.
        assert cache.conjunction_mask((a,)) is cache.predicate_mask(a)
        assert cache.conjunction_mask(()) is None

    def test_one_off_conjunctions_do_not_flood_the_cache(self, monkeypatch):
        """1,000 distinct two-predicate conjunctions over 100 distinct
        predicates, through a cache that holds 128 masks: every predicate is
        built once, because nothing but predicates competes for the room."""
        values = list(range(50))
        schema = Schema([Attribute("X", Domain(values)), Attribute("Y", Domain(values))])
        rng = np.random.default_rng(11)
        relation = Relation(
            schema, {name: rng.integers(0, 50, size=300) for name in ("X", "Y")}
        )
        compiler = PlanCompiler(schema)
        xs = [compiler.canonical_predicate(Predicate("X", Comparison.LE, v)) for v in values]
        ys = [compiler.canonical_predicate(Predicate("Y", Comparison.GE, v)) for v in values]
        pairs = [(x, y) for x in xs for y in ys]
        picked = rng.choice(len(pairs), size=1000, replace=False)
        monkeypatch.setattr(kernels, "MASK_CACHE_CAPACITY", 128)
        cache = MaskCache(relation)
        for index in picked:
            x, y = pairs[int(index)]
            assert np.array_equal(
                cache.conjunction_mask((x, y)), x.mask(relation) & y.mask(relation)
            )
        assert cache.misses == 100
        assert cache.hits == 2 * 1000 - 100
        assert len(cache) == 100

    def test_trace_counters_balance_with_the_cache(self, weighted_relation):
        """The ``mask_hits`` / ``mask_misses`` span counters of ``execute``
        and of a batch's shared masks sum to the cache's own deltas."""
        from repro.obs.trace import Tracer

        executor = ColumnarExecutor(weighted_relation)
        cache = executor.mask_cache
        workload = MixedQueryWorkload(weighted_relation, seed=9).generate(6, 6, 6, 6)
        plans = [executor.compiler.compile(entry.query) for entry in workload]
        tracer = Tracer()
        for plan in plans:
            executor.execute(plan, tracer=tracer)
        singles = (cache.hits, cache.misses)
        assert singles[1] > 0 and singles[0] > 0
        assert singles == (
            sum(root.counter_total("mask_hits") for root in tracer.roots),
            sum(root.counter_total("mask_misses") for root in tracer.roots),
        )
        tracer = Tracer()
        with tracer.span("batch") as root:
            executor.execute_batch(plans + plans, tracer=tracer)
        assert root.spans("mask")
        assert (cache.hits - singles[0], cache.misses - singles[1]) == (
            root.counter_total("mask_hits"),
            root.counter_total("mask_misses"),
        )

    def test_refit_brings_its_own_cold_mask_cache(self, fresh_serving_themis):
        """Masks are keyed by predicate alone: a cache holds one fitted
        sample's masks, and a refit's model starts a cache of its own."""
        old = fresh_serving_themis.model.sample_evaluator.mask_cache
        predicate = PlanCompiler(old.relation.schema).canonical_predicate(
            Predicate("A", Comparison.EQ, 0)
        )
        mask = old.predicate_mask(predicate)
        assert [key for key, _ in old.lru.entries()] == [predicate.key]
        new = fresh_serving_themis.refit().sample_evaluator.mask_cache
        assert new is not old and new.relation is not old.relation
        assert len(new) == 0 and new.misses == 0
        assert np.array_equal(new.predicate_mask(predicate), mask)
        assert (new.hits, new.misses) == (0, 1)
        assert old.predicate_mask(predicate) is mask  # the old snapshot is intact

    def test_executor_shares_masks_across_queries(self, weighted_relation):
        executor = ColumnarExecutor(weighted_relation)
        predicate = Predicate("A", Comparison.LE, 1)
        executor.execute(ScalarAggregateQuery(predicates=(predicate,)))
        misses_after_first = executor.mask_cache.misses
        assert misses_after_first > 0
        executor.execute(GroupByQuery(group_by=("B",), predicates=(predicate,)))
        assert executor.mask_cache.misses == misses_after_first  # pure hits

    def test_conjunction_mix_builds_masks_cold_and_none_warm(self, weighted_relation):
        # A multi-conjunct mix builds its masks once; its replay builds none.
        executor = ColumnarExecutor(weighted_relation)
        conjuncts = (
            Predicate("A", Comparison.IN, (0, 2)),
            Predicate("B", Comparison.LE, 1),
            Predicate("C", Comparison.GE, 1),
        )
        queries = [
            ScalarAggregateQuery(predicates=conjuncts),
            ScalarAggregateQuery(
                aggregate=AggregateSpec(AggregateFunction.AVG, "B"),
                predicates=conjuncts[1:],
            ),
            GroupByQuery(group_by=("A",), predicates=conjuncts[:2]),
            GroupByQuery(group_by=("A", "B"), predicates=conjuncts[::-1]),
        ]
        cold = [executor.execute(query) for query in queries]
        cold_misses = executor.mask_cache.misses
        assert cold_misses > 0
        assert [executor.execute(query) for query in queries] == cold
        assert executor.mask_cache.misses == cold_misses


#: An ordered domain with gaps, so literals can fall below, between and
#: above its values; the relation covers every code.
_GAPPED = Schema([Attribute("X", Domain([10, 20, 30, 40, 50]))])
_GAPPED_RELATION = Relation(
    _GAPPED, {"X": np.random.default_rng(5).integers(0, 5, size=200)}
)
_LITERALS = st.sampled_from([5, 10, 15, 20, 30, 35, 40, 50, 99])


class TestCanonicalPredicateMasks:
    """``CanonicalPredicate.mask`` (IN: one gather through the domain's code
    mask) == ``Predicate.mask`` on the original predicate, everywhere."""

    @settings(max_examples=200, deadline=None)
    @given(
        comparison=st.sampled_from(list(Comparison)),
        literal=_LITERALS,
        members=st.lists(_LITERALS, max_size=4),
    )
    def test_mask_equals_the_ast_predicates_mask(self, comparison, literal, members):
        value = tuple(members) if comparison is Comparison.IN else literal
        predicate = Predicate("X", comparison, value)
        canonical = PlanCompiler(_GAPPED).canonical_predicate(predicate)
        expected = predicate.mask(_GAPPED_RELATION)
        mask = canonical.mask(_GAPPED_RELATION)
        assert mask.dtype == bool and mask.shape == expected.shape
        assert (mask == expected).all()
        # The two views of one predicate agree: tuples pass iff their code does.
        assert (canonical.code_mask(5)[_GAPPED_RELATION.column("X")] == expected).all()

    def test_empty_and_out_of_domain_in_lists_match_nothing(self):
        compiler = PlanCompiler(_GAPPED)
        for members in ((), (5,), (15, 99)):
            canonical = compiler.canonical_predicate(Predicate("X", Comparison.IN, members))
            assert canonical.bucket == ()
            assert not canonical.mask(_GAPPED_RELATION).any()

    @pytest.mark.parametrize(
        "members",
        [
            (),  # empty bucket
            (5, 15, 99),  # nothing in the domain
            (10, 20, 30, 40, 50),  # the full domain
            (40, 10, 40, 99, 20, 10),  # unsorted, duplicated, one out of domain
        ],
    )
    def test_in_code_mask_equals_the_isin_reference(self, members):
        canonical = PlanCompiler(_GAPPED).canonical_predicate(
            Predicate("X", Comparison.IN, members)
        )
        for size in (5, 3, 8):  # the domain's size, and a table cut short or long
            mask = canonical.code_mask(size)
            reference = np.isin(np.arange(size), list(canonical.bucket))
            assert mask.dtype == bool and np.array_equal(mask, reference)

    def test_in_masks_of_a_seeded_workload_match_the_ast_predicates(self, serving_themis):
        """Every IN predicate a seeded mixed workload draws on the test
        world: the compiled mask == ``Predicate.mask``, the np.isin reference."""
        relation = serving_themis.model.weighted_sample
        compiler = PlanCompiler(relation.schema)
        workload = MixedQueryWorkload(relation, seed=21).generate(0, 60, 60, 30)
        checked = 0
        for entry in workload:
            for predicate in entry.query.predicates:
                if predicate.comparison is Comparison.IN:
                    canonical = compiler.canonical_predicate(predicate)
                    assert np.array_equal(canonical.mask(relation), predicate.mask(relation))
                    checked += 1
        assert checked >= 30

class TestRoutingMatchesHybrid:
    def test_resolve_route_matches_planner(self, serving_themis):
        model = serving_themis.model
        compiler = PlanCompiler(model.sample.schema)
        queries = [
            PointQuery({"A": 0}),
            PointQuery({"A": 2, "B": 2, "C": 1}),
            ScalarAggregateQuery(predicates=(Predicate("A", Comparison.EQ, 0),)),
            ScalarAggregateQuery(),
            GroupByQuery(group_by=("A",)),
            JoinGroupByQuery(
                left_join="B", right_join="B", left_group="A", right_group="C"
            ),
        ]
        for query in queries:
            routed = resolve_route(
                compiler.compile(query), model.sample_evaluator.mask_cache
            )
            assert routed.route == model.plan(query).route

    def test_unrouted_plan_defaults_to_hybrid(self):
        compiler = PlanCompiler(build_correlated_population().schema)
        plan = compiler.compile(GroupByQuery(group_by=("A",)))
        assert plan.route is None
        assert resolve_route(plan, None).route == ROUTE_HYBRID


class TestExplainHook:
    def test_query_explain_returns_compiled_plan(self, serving_themis):
        explained = serving_themis.query(
            "SELECT A, COUNT(*) FROM sample WHERE B <= 1 GROUP BY A", explain=True
        )
        plain = serving_themis.query(
            "SELECT A, COUNT(*) FROM sample WHERE B <= 1 GROUP BY A"
        )
        assert explained.result == plain
        assert explained.plan.shape == "group-by"
        assert explained.route == ROUTE_HYBRID
        rendering = explained.explain()
        assert "Group[A]" in rendering and "Scan[sample]" in rendering

    def test_point_explain_routes(self, serving_themis):
        explained = serving_themis.query(PointQuery({"A": 0}), explain=True)
        assert explained.route in (ROUTE_SAMPLE, ROUTE_BAYES_NET)
        assert explained.plan.key[0] == "point"


class TestQueryResultEquality:
    def test_equal_results_compare_and_hash_equal(self):
        left = QueryResult(("A",), {(0,): 1.5, (1,): 2.5})
        right = QueryResult(("A",), {(1,): 2.5, (0,): 1.5})
        assert left == right
        assert hash(left) == hash(right)

    def test_value_difference_detected(self):
        left = QueryResult(("A",), {(0,): 1.5})
        right = QueryResult(("A",), {(0,): 1.5 + 1e-12})
        assert left != right

    def test_group_by_columns_matter(self):
        assert QueryResult(("A",), {(0,): 1.0}) != QueryResult(("B",), {(0,): 1.0})

    def test_non_result_comparison(self):
        assert QueryResult(("A",), {}) != {"anything": 1}


class TestEvaluatorErrorMessages:
    def test_execute_reports_offending_query_repr(self, serving_themis):
        bogus = {"not": "a query"}
        with pytest.raises(QueryError) as excinfo:
            serving_themis.model.hybrid_evaluator.execute(bogus)
        message = str(excinfo.value)
        assert "dict" in message
        assert repr(bogus) in message

    def test_base_class_dispatch_raises_with_repr(self):
        with pytest.raises(QueryError) as excinfo:
            OpenWorldEvaluator().execute(42)
        assert "int" in str(excinfo.value)
        assert "42" in str(excinfo.value)


class TestNetworkScalars:
    def test_session_batch_of_bn_scalars_answers_from_generated_samples(
        self, sparse_serving_themis
    ):
        themis = sparse_serving_themis
        # Conjunctions absent from the sample, so the scalars provably route
        # to the network.
        sample = themis.model.weighted_sample
        missing = [
            {"A": a, "B": b, "C": c}
            for a in (2, 1)
            for b in (2, 1, 0)
            for c in (1, 0)
            if not sample.contains({"A": a, "B": b, "C": c})
        ][:2]
        assert len(missing) == 2, "sparse sample unexpectedly covers every tuple"
        queries = [
            ScalarAggregateQuery(
                aggregate=spec,
                predicates=tuple(
                    Predicate(name, Comparison.EQ, value)
                    for name, value in assignment.items()
                ),
            )
            for assignment in missing
            for spec in (
                AggregateSpec(AggregateFunction.COUNT),
                AggregateSpec(AggregateFunction.SUM, "B"),
                AggregateSpec(AggregateFunction.AVG, "C"),
            )
        ] + [
            "SELECT COUNT(*) FROM sample WHERE A = 0 AND A = 1",
            "SELECT SUM(B) FROM sample WHERE A = 1 AND A = 0",
        ]
        plans = [themis.plan(query) for query in queries]
        assert all(plan.route == ROUTE_BAYES_NET for plan in plans)
        assert all(plan.needs_generated_samples for plan in plans)
        batch = themis.serve().execute_batch(queries)
        assert batch.results() == [themis.query(query) for query in queries]
        assert batch.results()[-2:] == [0.0, 0.0]
