"""The stacked ``(sample, group)`` pass == the loop over ``K`` generated samples.

``BayesNetEvaluator`` answers GROUP BY, join, table and sampled scalar
queries from its ``K`` forward-sampled relations stacked into one relation
behind one executor.  The loop it replaced lives on as the reference
(``oracle.network_reference`` over ``oracle.per_sample_consensus``: a fresh
``ColumnarExecutor`` per generated sample, one ``execute`` per ``(query,
sample)`` pair, combined by ``intersect_and_average`` or the plain mean),
and every answer of the stacked pass must be ``==`` to it — exact floats,
for ``K`` below and above the width (8) at which numpy's pairwise summation
starts to differ from a sequential one.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import network_reference as reference
from repro.bayesnet import ForwardSampler
from repro.core import Themis, ThemisConfig
from repro.core.evaluators import BayesNetEvaluator
from repro.exceptions import QueryCancelledError, QueryError
from repro.obs import names
from repro.plan import (
    ColumnarExecutor,
    MaskCache,
    PlanCompiler,
    RowPartition,
    fused_group_columns,
    numeric_column,
    partitioned_group_columns,
    partitioned_grouped_weight_totals,
    partitioned_scalar_reduce,
)
from repro.plan.executor import _sample_means
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
from repro.schema import Relation
from repro.serving.governance import CancelToken
from worlds import (
    build_biased_correlated_sample,
    build_correlated_aggregates,
    build_correlated_population,
)

K_VALUES = (1, 3, 8, 10)

COUNT = AggregateSpec(AggregateFunction.COUNT)
SUM_B = AggregateSpec(AggregateFunction.SUM, "B")
AVG_B = AggregateSpec(AggregateFunction.AVG, "B")
AVG_C = AggregateSpec(AggregateFunction.AVG, "C")


def eq(name, value):
    return Predicate(name, Comparison.EQ, value)


SCALARS = [
    ScalarAggregateQuery(),  # no predicate
    ScalarAggregateQuery(COUNT, (Predicate("A", Comparison.LE, 1),)),
    ScalarAggregateQuery(SUM_B, (eq("C", 1),)),
    ScalarAggregateQuery(AVG_B, (eq("C", 1), Predicate("A", Comparison.IN, (0, 2)))),
    ScalarAggregateQuery(AVG_B, (Predicate("A", Comparison.IN, (0, 2)), eq("C", 1))),  # reordered
    ScalarAggregateQuery(AVG_C),
    ScalarAggregateQuery(COUNT, (eq("A", 0), eq("A", 1))),  # empty selection
    ScalarAggregateQuery(AVG_B, (eq("A", 0), eq("A", 1))),  # AVG over nothing
    ScalarAggregateQuery(SUM_B, (eq("A", 99),)),  # out of the domain
]
GROUP_BYS = [
    GroupByQuery(("A",)),
    GroupByQuery(("A",), SUM_B, (eq("C", 1),)),
    GroupByQuery(("A",), AVG_B, (eq("C", 1),)),  # same family as the SUM above
    GroupByQuery(("A", "B"), AVG_C),
    GroupByQuery(("B", "C"), COUNT, (Predicate("A", Comparison.GE, 1), eq("A", 1))),
    GroupByQuery(("B", "C"), COUNT, (eq("A", 1), Predicate("A", Comparison.GE, 1))),  # reordered
    GroupByQuery(("B",), COUNT, (eq("A", 0), eq("A", 2))),  # empty selection
]
JOINS = [
    JoinGroupByQuery("A", "A", "B", "C"),
    JoinGroupByQuery("A", "A", "B", "C", left_predicates=(eq("C", 1),)),
    JoinGroupByQuery("B", "B", "A", "C", right_predicates=(Predicate("A", Comparison.LE, 1),)),
    JoinGroupByQuery("B", "B", "A", "C", (eq("C", 0),), (eq("C", 0),)),
]
TABLES = [
    "SELECT A, COUNT(*) AS n, SUM(B) AS s FROM R GROUP BY A ORDER BY n DESC",
    "SELECT A, B, COUNT(*) AS n, AVG(C) AS m FROM R WHERE C = 1 GROUP BY A, B "
    "HAVING n > 0 ORDER BY m DESC, A LIMIT 4",
    "SELECT A, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r FROM R GROUP BY A",
    "SELECT COUNT(*) AS n, AVG(B) AS m, SUM(C) AS s FROM R WHERE A <= 1",  # group-less
    "SELECT COUNT(*) AS n, AVG(B) AS m FROM R WHERE A = 0 AND A = 1",  # group-less, empty
]
FLAT = SCALARS + GROUP_BYS + JOINS
#: One family with everything in it, duplicates included.
FAMILY = FLAT + TABLES + [SCALARS[3], GROUP_BYS[1], JOINS[0], TABLES[0]]


def fitted(k: int) -> Themis:
    """The sparse world of ``worlds.build_sparse_fitted_themis`` with ``K = k``."""
    population = build_correlated_population()
    themis = Themis(
        ThemisConfig(
            seed=3,
            ipf_max_iterations=20,
            n_generated_samples=k,
            generated_sample_size=150,
        )
    )
    themis.load_sample(
        build_biased_correlated_sample(population).take(np.arange(30)), name="R"
    )
    themis.add_aggregates(build_correlated_aggregates(population))
    themis.fit()
    return themis


@pytest.fixture(scope="module", params=K_VALUES, ids=lambda k: f"K={k}")
def themis(request) -> Themis:
    """A fitted facade per ``K`` (read-only)."""
    return fitted(request.param)


# ---------------------------------------------------------------------------
# The evaluator: batched and single-plan answers == the loop
# ---------------------------------------------------------------------------
class TestStackedPassEqualsTheLoop:
    def test_run_equals_the_per_sample_reference(self, themis):
        evaluator = themis.model.bayes_net_evaluator
        assert len(evaluator.generated_samples()) == evaluator.n_generated_samples
        plans = [themis.plan(query) for query in FAMILY]
        assert evaluator.run(plans) == reference(evaluator, FAMILY)
        # Twice: the second run finds every mask cached.
        assert evaluator.run(plans) == reference(evaluator, FAMILY)

    def test_execute_equals_the_reference(self, themis):
        evaluator = themis.model.bayes_net_evaluator
        tables = [themis.plan(sql).query for sql in TABLES]
        for queries in (SCALARS, GROUP_BYS, JOINS, tables):
            assert [evaluator.execute(q) for q in queries] == reference(evaluator, queries)

    def test_the_selections_are_not_all_trivial(self, themis):
        evaluator = themis.model.bayes_net_evaluator
        answers = reference(evaluator, FLAT)
        by_query = dict(zip(map(repr, FLAT), answers))
        assert by_query[repr(SCALARS[0])] > 0
        assert by_query[repr(SCALARS[6])] == 0.0 and by_query[repr(SCALARS[7])] == 0.0
        assert len(by_query[repr(GROUP_BYS[0])]) >= 2
        assert len(by_query[repr(GROUP_BYS[-1])]) == 0
        assert len(by_query[repr(JOINS[0])]) >= 2

    def test_one_executor_over_one_stacked_relation(self, themis):
        evaluator = themis.model.bayes_net_evaluator
        evaluator.execute(GROUP_BYS[0])
        samples = evaluator.generated_samples()
        executor = evaluator._executor()
        assert executor is evaluator._executor()
        relation = executor.relation
        assert relation.n_rows == sum(sample.n_rows for sample in samples)
        offsets = executor._partition.offsets
        assert offsets[0] == offsets[1] == 0  # part 0 is empty
        for k, sample in enumerate(samples, start=1):
            rows = slice(offsets[k], offsets[k + 1])
            assert (executor._partition.ids[rows] == k).all()
            assert (relation.weights[rows] == sample.weights).all()
            for name in relation.attribute_names:
                assert (relation.column(name)[rows] == sample.column(name)).all()

    def test_the_network_run_equals_the_loop(self, themis):
        evaluator = themis.model.bayes_net_evaluator
        answers = evaluator.run([themis.plan(query) for query in FLAT])
        assert answers == reference(evaluator, FLAT)


    @pytest.mark.parametrize("k", [0, -1])
    def test_fit_refuses_fewer_than_one_generated_sample(self, k):
        with pytest.raises(QueryError, match="n_generated_samples"):
            fitted(k)


class TestOnePartRule:
    """One world behind an empty part 0 == no partition at all.

    The weighted sample's executor has no partition and takes each
    kernel's part ``0``; a partition of an empty part 0 and one world runs
    the combine rule (part 0 has no group, so the consensus over the one
    world decides, mean over one value) and must not move an answer.
    """

    STATEMENTS = FAMILY + [
        PointQuery({"A": 0, "B": 1, "C": 1}),
        PointQuery({"A": 2, "B": 9, "C": 0}),  # out of the domain
        "SELECT A, B, SUM(C) AS s, SUM(s) OVER (PARTITION BY A ORDER BY s) AS run "
        "FROM R GROUP BY A, B",
        "SELECT B, AVG(C) AS m, RANK() OVER (ORDER BY m DESC) AS r FROM R "
        "WHERE A <= 1 GROUP BY B HAVING m > 0 LIMIT 2",
    ]

    def test_one_world_equals_no_partition(self):
        population = build_correlated_population()
        rng = np.random.default_rng(5)
        weights = rng.random(population.n_rows) * 3
        weights[population.column("A") == 2] = 0.0  # a present, weightless group
        relation = population.with_weights(weights)
        plain = ColumnarExecutor(relation)
        one_part = ColumnarExecutor(
            relation, partition=RowPartition.of_sizes([0, relation.n_rows])
        )
        answers = plain.execute_batch(self.STATEMENTS)
        assert one_part.execute_batch(self.STATEMENTS) == answers
        assert [one_part.execute(statement) for statement in self.STATEMENTS] == answers
        by_statement = dict(zip(map(repr, self.STATEMENTS), answers))
        assert (2,) not in by_statement[repr(GROUP_BYS[0])].as_dict()
        assert any(group[0] == 2 for group in by_statement[repr(JOINS[0])].as_dict())


class TestHandBuiltWorlds:
    """Three hand-built generated samples with the two traps in them."""

    @pytest.fixture
    def evaluator(self, monkeypatch, serving_themis) -> BayesNetEvaluator:
        network = serving_themis.model.network
        schema = network.schema
        rows = [
            # (A, B, C, weight)
            [(0, 1, 0, 1.0), (1, 2, 1, 2.0), (2, 0, 1, 3.0), (0, 2, 1, 0.5)],
            [(0, 0, 0, 2.0), (1, 1, 1, 4.0)],  # A = 2 missing
            [(0, 2, 1, 3.0), (1, 1, 0, 0.0), (2, 2, 0, 5.0)],  # A = 1 weighs nothing
        ]
        samples = [
            Relation.from_rows(
                schema, [row[:3] for row in sample], weights=[row[3] for row in sample]
            )
            for sample in rows
        ]
        monkeypatch.setattr(
            ForwardSampler, "sample_many", lambda self, *args, **kwargs: samples
        )
        return BayesNetEvaluator(network, population_size=10.0, n_generated_samples=3)

    def test_a_group_missing_from_one_sample_is_dropped(self, evaluator):
        counts = evaluator.execute(GroupByQuery(("A",)))
        # A = 2 is absent from the second world, A = 1 has no positive weight
        # in the third: both are phantoms.  A = 0 averages 1.5, 2 and 3.
        assert counts.as_dict() == {(0,): float(np.mean([1.5, 2.0, 3.0]))}
        assert counts == reference(evaluator, [GroupByQuery(("A",))])[0]

    def test_zero_weight_avg(self, evaluator):
        # AVG(B) WHERE A = 1: the third world's selection weighs nothing, so
        # its AVG is the guarded 0.0 — and still one of the K operands.
        query = ScalarAggregateQuery(AVG_B, (eq("A", 1),))
        assert evaluator.execute(query) == float(np.mean([2.0, 1.0, 0.0]))
        grouped = GroupByQuery(("A",), AVG_B)
        assert evaluator.execute(grouped).as_dict() == {
            (0,): float(np.mean([(1.0 * 1 + 0.5 * 2) / 1.5, 0.0, 2.0]))
        }
        for q in (query, grouped):
            assert evaluator.execute(q) == reference(evaluator, [q])[0]

    def test_join_presence_keeps_zero_weight_groups(self, evaluator):
        # Join sides enumerate *present* groups, zero-weight ones included.
        query = JoinGroupByQuery("A", "A", "B", "C")
        assert evaluator.execute(query) == reference(evaluator, [query])[0]
        family = [query, GroupByQuery(("A",)), ScalarAggregateQuery(AVG_B, (eq("A", 1),))]
        plans = [PlanCompiler(evaluator.network.schema).compile(q) for q in family]
        assert evaluator.run(plans) == reference(evaluator, family)


# ---------------------------------------------------------------------------
# The kernels: every part of a partitioned pass == the pass over that part
# ---------------------------------------------------------------------------
class TestPartitionedKernels:
    @pytest.fixture(scope="class")
    def parts(self) -> list[Relation]:
        rng = np.random.default_rng(11)
        population = build_correlated_population()
        parts = []
        for size in (40, 0, 75, 8, 120):
            part = population.take(rng.choice(population.n_rows, size=size, replace=False))
            weights = rng.random(size) * 10
            weights[rng.random(size) < 0.2] = 0.0
            parts.append(part.with_weights(weights))
        return parts

    @pytest.fixture(scope="class")
    def stacked(self, parts) -> tuple[Relation, RowPartition]:
        relation = parts[0]
        for part in parts[1:]:
            relation = relation.concat(part)
        return relation, RowPartition.of_sizes([part.n_rows for part in parts])

    PREDICATES = [
        (),
        (eq("C", 1),),
        (Predicate("A", Comparison.IN, (0, 2)), Predicate("B", Comparison.GE, 1)),
        (eq("A", 0), eq("A", 1)),
    ]

    def _masks(self, relation, predicates):
        compiler = PlanCompiler(relation.schema)
        canonical = tuple(compiler.canonical_predicate(p) for p in predicates)
        return MaskCache(relation).conjunction_mask(canonical)

    def _specs(self, relation):
        return [
            ("count", None),
            ("sum", numeric_column(relation, "B")),
            ("avg", numeric_column(relation, "B")),
            ("avg", numeric_column(relation, "C")),
        ]

    def test_partition_of_sizes(self):
        partition = RowPartition.of_sizes([2, 0, 3])
        assert partition.n_parts == 3
        assert partition.offsets.tolist() == [0, 2, 2, 5]
        assert partition.ids.tolist() == [0, 0, 2, 2, 2]

    @pytest.mark.parametrize("predicates", PREDICATES)
    def test_scalar_parts(self, parts, stacked, predicates):
        relation, partition = stacked
        together = partitioned_scalar_reduce(
            relation, self._masks(relation, predicates), self._specs(relation), partition
        )
        for k, part in enumerate(parts):
            alone = partitioned_scalar_reduce(
                part, self._masks(part, predicates), self._specs(part)
            )
            assert [[values[k]] for values in together] == alone

    @pytest.mark.parametrize("predicates", PREDICATES)
    @pytest.mark.parametrize("keys", [("A",), ("B", "C")])
    def test_group_parts(self, parts, stacked, keys, predicates):
        relation, partition = stacked
        totals, per_spec = partitioned_group_columns(
            relation, keys, self._masks(relation, predicates), self._specs(relation), partition
        )
        assert totals.shape == (len(parts), relation.group_codes(keys)[1].shape[0])
        for k, part in enumerate(parts):
            if not part.n_rows:
                assert not totals[k].any()
                continue
            positive, _, decoded, alone = fused_group_columns(
                part, keys, self._masks(part, predicates), self._specs(part)
            )
            rows = np.flatnonzero(totals[k] > 0)
            assert relation.group_tuples(keys, rows) == decoded
            for values, part_values in zip(per_spec, alone):
                assert values[k][rows].tolist() == part_values[positive].tolist()

    @pytest.mark.parametrize("keys", [("A", "B"), ("C", "A")])
    def test_join_side_parts(self, parts, stacked, keys):
        relation, partition = stacked
        together = partitioned_grouped_weight_totals(
            relation, keys, [self._masks(relation, p) for p in self.PREDICATES], partition
        )
        for k, part in enumerate(parts):
            if not part.n_rows:
                assert all(side[k] == {} for side in together)
                continue
            alone = partitioned_grouped_weight_totals(
                part, keys, [self._masks(part, p) for p in self.PREDICATES]
            )
            for side, (part_side,) in zip(together, alone):
                assert side[k] == part_side
                assert list(side[k]) == list(part_side)  # the merge's iteration order

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 10, 16, 33, 129])
    def test_sample_means_is_the_mean_of_the_k_values(self, k):
        rng = np.random.default_rng(k)
        values = rng.random((k, 57)) * rng.choice([1e-9, 1.0, 1e9], size=(k, 57))
        means = _sample_means(values.T)
        assert means == [float(np.mean(list(column))) for column in values.T.tolist()]
        assert _sample_means([]) == [] and _sample_means(np.empty((0, k))) == []


# ---------------------------------------------------------------------------
# Serving: hybrid batches, refits, cancellation, traces
# ---------------------------------------------------------------------------
STATEMENTS = [
    "SELECT A, COUNT(*) FROM R GROUP BY A",
    "SELECT B, SUM(A) FROM R WHERE C = 1 GROUP BY B",
    "SELECT B, AVG(A) FROM R WHERE C = 1 GROUP BY B",
    "SELECT A, B, COUNT(*) FROM R GROUP BY A, B",
    "SELECT AVG(B) FROM R WHERE A = 1",
    "SELECT SUM(C) FROM R WHERE A = 1 AND B <= 1",
    "SELECT COUNT(*) AS n, AVG(B) AS m FROM R WHERE A = 1",
    "SELECT A, COUNT(*) AS n, AVG(B) AS m FROM R GROUP BY A ORDER BY n DESC",
    JoinGroupByQuery("A", "A", "B", "C"),
    "SELECT COUNT(*) FROM R WHERE A = 0",
    "SELECT B, SUM(A) FROM R WHERE C = 1 GROUP BY B",  # duplicate
]
#: Network-routed sampled aggregates only (``A = 1`` never occurs in the
#: sparse sample): distinct filters, so distinct masks.
BN_ROUTED = [
    "SELECT AVG(B) FROM R WHERE A = 1",
    "SELECT SUM(C) FROM R WHERE A = 1 AND B <= 1",
    "SELECT COUNT(*) AS n, AVG(B) AS m FROM R WHERE A = 1 AND C = 1",
    "SELECT SUM(B) FROM R WHERE A = 1 AND C = 0",
]


class CountingToken(CancelToken):
    """Counts its polls and cancels itself on the ``fire_at``-th."""

    def __init__(self, fire_at: float = float("inf")):
        super().__init__()
        self.polls = 0
        self.fire_at = fire_at

    def poll(self) -> None:
        self.polls += 1
        if self.polls >= self.fire_at:
            self.cancel()
        super().poll()


class TestServingOverTheStack:
    def test_hybrid_batches_equal_singles_cold_and_warm(self, themis):
        assert {themis.plan(q).route for q in STATEMENTS} == {"sample", "bayes-net", "hybrid"}
        singles = [themis.query(statement) for statement in STATEMENTS]
        session = themis.serve()
        assert session.execute_batch(STATEMENTS).results() == singles
        assert session.execute_batch(STATEMENTS).results() == singles  # result cache
        session.clear_caches()
        assert session.execute_batch(STATEMENTS).results() == singles  # warm masks only
        hybrid = themis.model.hybrid_evaluator
        plans = [themis.plan(statement) for statement in STATEMENTS]
        assert hybrid.run(plans) == singles

    def test_refit_rebuilds_the_stack(self):
        themis = fitted(3)
        session = themis.serve()
        before = themis.model.bayes_net_evaluator
        assert session.execute_batch(STATEMENTS).results() == [
            themis.query(statement) for statement in STATEMENTS
        ]
        old_executor = before._executor()
        themis.refit()
        after = themis.model.bayes_net_evaluator
        # A refit builds a fresh evaluator; nothing of the old stack — its
        # relation, its masks — is reachable from the new model.
        assert after is not before and not after.has_generated_samples
        answers = session.execute_batch(STATEMENTS).results()
        assert after._executor() is not old_executor
        assert answers == [themis.query(statement) for statement in STATEMENTS]
        flat = [q for q in STATEMENTS if not isinstance(q, str)] + GROUP_BYS
        assert [after.execute(q) for q in flat] == reference(after, flat)

    def test_cancel_fires_between_plans(self):
        themis = fitted(3)
        assert {themis.plan(sql).route for sql in BN_ROUTED} == {"bayes-net"}
        evaluator = themis.model.bayes_net_evaluator
        plans = [themis.plan(sql) for sql in BN_ROUTED]
        token = CountingToken()
        evaluator.run(plans, cancel=token)
        assert token.polls == len(BN_ROUTED)  # one poll per plan

        session = themis.serve()
        counting = CountingToken()
        session.execute_batch(BN_ROUTED, cancel=counting)
        session.clear_caches()
        # Fire in the middle of the family: at least one plan ran, at least
        # one did not.
        with pytest.raises(QueryCancelledError):
            session.execute_batch(BN_ROUTED, cancel=CountingToken(fire_at=counting.polls - 2))
        singles = [themis.query(sql) for sql in BN_ROUTED]
        assert session.execute_batch(BN_ROUTED).results() == singles
        assert session.execute_batch(STATEMENTS).results() == [
            themis.query(statement) for statement in STATEMENTS
        ]

    def test_traced_batch_shows_bn_samples_under_execute(self, themis):
        statements = BN_ROUTED + STATEMENTS[:4]
        batch = themis.serve(trace=True).execute_batch(statements)
        assert batch.results() == [themis.query(statement) for statement in statements]
        execute = batch.trace.find(names.STAGE_EXECUTE)
        # One span for the network's family, one for the hybrid family.
        network, hybrid = execute.spans("bn-samples")
        k = themis.model.bayes_net_evaluator.n_generated_samples
        assert network.attributes["samples"] == hybrid.attributes["samples"] == k
        # Three scalars and the group-less table, which runs whole.
        assert network.attributes["plans"] == 4
        # The sample is part 0 of the hybrid's stack, so no sample-side span
        # runs beside it; inside either stack, each plan's mask, and no
        # schedule.
        assert not execute.spans("sample-side")
        assert [child.name for child in hybrid.children] == ["mask"] * hybrid.attributes["plans"]
        assert [child.name for child in network.children] == ["mask"] * network.attributes["plans"]
        assert not execute.spans("optimize")
