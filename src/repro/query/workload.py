"""Query workload generation (Sec. 6.3, plus mixed-shape serving workloads).

The evaluation runs 100 point queries per attribute set, with the query
selection values drawn from the population's *light hitters* (smallest
counts), *heavy hitters* (largest counts), or *random values* (any existing
value).  :class:`PointQueryWorkload` generates those workloads from a
ground-truth population relation.

:class:`MixedQueryWorkload` additionally generates every SQL-expressible
query shape — point, filtered scalar, and (filtered) GROUP BY — as paired
``(sql, query)`` entries, which is what the plan-IR round-trip tests and the
chaos experiments run over.

**Seed contract.**  Both generators are fully seedable: every random choice
(attribute sets, literal values, predicate shapes, pool indices) is drawn
from a single ``numpy.random.Generator`` created once in the constructor
from the ``seed`` argument.  The contract, relied on by the differential
tests, the chaos experiments, and CI reproductions, is:

* same ``seed`` + same relation/schema + same sequence of ``generate*``
  calls (same arguments, same order) => the **identical** workload, across
  processes, platforms, and ``PYTHONHASHSEED`` values;
* distinct generator instances never share state: two workloads built with
  the same seed are identical, and interleaving calls on one instance
  advances only that instance's stream;
* ``seed=None`` (the default) seeds from OS entropy — irreproducible, for
  exploration only.  Pass an explicit int anywhere a run must be replayed;
  failures in seeded sweeps should report the seed in the assertion message.

(Per-entry shape rotation — aggregate functions, analytic variants — is
keyed on the entry *index*, not the RNG, so changing ``n_queries`` never
shifts which shapes earlier entries take.)
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from ..exceptions import QueryError
from ..schema import Relation
from .ast import (
    AggregateFunction,
    AggregateSpec,
    AnalyticQuery,
    Comparison,
    GroupByQuery,
    HavingPredicate,
    OrderKey,
    PointQuery,
    Predicate,
    Query,
    ScalarAggregateQuery,
    WindowFunction,
    WindowSpec,
)


class HitterKind(str, Enum):
    """How point-query selection values are chosen from the population."""

    HEAVY = "heavy"
    LIGHT = "light"
    RANDOM = "random"


@dataclass(frozen=True)
class WorkloadQuery:
    """One workload entry: the point query plus its true population answer."""

    query: PointQuery
    true_value: float
    kind: HitterKind
    attributes: tuple[str, ...]


class PointQueryWorkload:
    """Generate hitter-based point-query workloads from a population."""

    def __init__(self, population: Relation, seed: int | np.random.Generator | None = None):
        self._population = population
        self._rng = np.random.default_rng(seed)

    def generate(
        self,
        attributes: Sequence[str],
        kind: HitterKind | str,
        n_queries: int,
    ) -> list[WorkloadQuery]:
        """Generate ``n_queries`` point queries over one attribute set.

        Heavy (light) hitter workloads sample among the most (least) frequent
        existing value combinations; random workloads sample uniformly among
        all existing combinations.
        """
        kind = HitterKind(kind)
        attributes = tuple(attributes)
        if not attributes:
            raise QueryError("workload generation needs at least one attribute")
        if n_queries < 1:
            raise QueryError("n_queries must be at least 1")
        counts = self._population.value_counts(attributes)
        if not counts:
            raise QueryError("population has no rows to build a workload from")
        groups = list(counts.items())
        groups.sort(key=lambda item: item[1])

        if kind is HitterKind.RANDOM:
            pool = groups
        else:
            # Hitter pools: the extreme quartile (at least one group).
            pool_size = max(1, len(groups) // 4)
            pool = groups[-pool_size:] if kind is HitterKind.HEAVY else groups[:pool_size]

        indices = self._rng.choice(len(pool), size=n_queries, replace=True)
        workload: list[WorkloadQuery] = []
        for index in indices:
            values, count = pool[int(index)]
            assignment = dict(zip(attributes, values))
            workload.append(
                WorkloadQuery(
                    query=PointQuery(assignment),
                    true_value=float(count),
                    kind=kind,
                    attributes=attributes,
                )
            )
        return workload

    def generate_over_attribute_sets(
        self,
        attribute_sets: Sequence[Sequence[str]],
        kind: HitterKind | str,
        n_queries_per_set: int,
    ) -> list[WorkloadQuery]:
        """Generate a workload spanning several attribute sets."""
        workload: list[WorkloadQuery] = []
        for attributes in attribute_sets:
            workload.extend(self.generate(attributes, kind, n_queries_per_set))
        return workload

    def random_attribute_sets(
        self, sizes: Sequence[int], n_sets: int, attributes: Sequence[str] | None = None
    ) -> list[tuple[str, ...]]:
        """Randomly choose ``n_sets`` attribute sets with sizes drawn from ``sizes``."""
        names = tuple(attributes) if attributes is not None else self._population.attribute_names
        chosen: list[tuple[str, ...]] = []
        for _ in range(n_sets):
            size = int(self._rng.choice(list(sizes)))
            size = min(size, len(names))
            picked = self._rng.choice(len(names), size=size, replace=False)
            chosen.append(tuple(names[index] for index in sorted(picked)))
        return chosen


@dataclass(frozen=True)
class MixedWorkloadQuery:
    """One mixed-workload entry: a SQL statement and its hand-built AST.

    ``sql`` parses to a query whose compiled plan key equals the key of the
    hand-built ``query`` — the invariant the plan-IR round-trip tests assert
    for every shape this generator emits.
    """

    sql: str
    query: Query
    shape: str


def _sql_literal(value: Any) -> str:
    """Format one domain value as a SQL literal the parser reads back."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


class MixedQueryWorkload:
    """Generate paired (SQL, AST) workloads over every SQL-expressible shape.

    Point queries, filtered scalar aggregates (COUNT/SUM/AVG with equality,
    ordered, and IN predicates), and filtered GROUP BY aggregates are all
    drawn from a relation's actual attribute domains, so every literal is
    in-domain and every statement parses back to an AST whose compiled plan
    key matches the hand-built query's key.
    """

    def __init__(
        self,
        relation: Relation,
        table: str = "R",
        seed: int | np.random.Generator | None = None,
    ):
        self._relation = relation
        self._table = table
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def _numeric_attributes(self) -> tuple[str, ...]:
        names = []
        for attribute in self._relation.schema:
            try:
                np.asarray(attribute.domain.values, dtype=float)
            except (TypeError, ValueError):
                continue
            names.append(attribute.name)
        return tuple(names)

    def _random_value(self, name: str) -> Any:
        domain = self._relation.schema[name].domain
        return domain.values[int(self._rng.integers(len(domain)))]

    def _random_predicates(
        self, names: Sequence[str], kind_offset: int = 0
    ) -> list[Predicate]:
        """One predicate per attribute, cycling equality/ordered/IN shapes.

        ``kind_offset`` rotates the cycle so short conjunctions (one or two
        predicates) still reach every shape across a workload — without it,
        the IN branch would only appear from the third conjunct on.
        """
        predicates = []
        for index, name in enumerate(names):
            domain = self._relation.schema[name].domain
            kind = (index + kind_offset) % 3
            if kind == 0:
                predicates.append(Predicate(name, Comparison.EQ, self._random_value(name)))
            elif kind == 1:
                comparison = (Comparison.LE, Comparison.GE, Comparison.LT, Comparison.GT)[
                    int(self._rng.integers(4))
                ]
                predicates.append(Predicate(name, comparison, self._random_value(name)))
            else:
                count = int(self._rng.integers(1, min(4, len(domain)) + 1))
                picked = self._rng.choice(len(domain), size=count, replace=False)
                values = tuple(domain.values[int(i)] for i in sorted(picked))
                predicates.append(Predicate(name, Comparison.IN, values))
        return predicates

    @staticmethod
    def _predicate_sql(predicate: Predicate) -> str:
        if predicate.comparison is Comparison.IN:
            values = ", ".join(_sql_literal(value) for value in predicate.value)
            return f"{predicate.attribute} in ({values})"
        return (
            f"{predicate.attribute} {predicate.comparison.value} "
            f"{_sql_literal(predicate.value)}"
        )

    # ------------------------------------------------------------------
    # Shape generators
    # ------------------------------------------------------------------
    def point_queries(self, n_queries: int, dimension: int = 2) -> list[MixedWorkloadQuery]:
        """``SELECT COUNT(*) ... WHERE`` equality conjunctions (point shape)."""
        names = self._relation.attribute_names
        dimension = min(dimension, len(names))
        entries = []
        for _ in range(n_queries):
            picked = self._rng.choice(len(names), size=dimension, replace=False)
            assignment = {names[int(i)]: self._random_value(names[int(i)]) for i in picked}
            where = " AND ".join(
                f"{name} = {_sql_literal(value)}"
                for name, value in sorted(assignment.items())
            )
            entries.append(
                MixedWorkloadQuery(
                    sql=f"SELECT COUNT(*) FROM {self._table} WHERE {where}",
                    query=PointQuery(assignment),
                    shape="point",
                )
            )
        return entries

    def scalar_queries(
        self, n_queries: int, n_predicates: int = 2
    ) -> list[MixedWorkloadQuery]:
        """Filtered scalar aggregates (COUNT/SUM/AVG, no GROUP BY)."""
        names = self._relation.attribute_names
        numeric = self._numeric_attributes()
        n_predicates = min(n_predicates, len(names))
        entries = []
        functions = [AggregateFunction.COUNT]
        if numeric:
            functions += [AggregateFunction.SUM, AggregateFunction.AVG]
        for index in range(n_queries):
            function = functions[index % len(functions)]
            picked = self._rng.choice(len(names), size=n_predicates, replace=False)
            predicates = self._random_predicates(
                [names[int(i)] for i in picked], kind_offset=index
            )
            if function is AggregateFunction.COUNT:
                # Keep at least one non-equality conjunct, otherwise the SQL
                # parser (correctly) reads the statement back as a point query.
                if all(p.comparison is Comparison.EQ for p in predicates):
                    first = predicates[0]
                    predicates[0] = Predicate(first.attribute, Comparison.LE, first.value)
                spec = AggregateSpec(AggregateFunction.COUNT)
                select = "COUNT(*)"
            else:
                measure = numeric[int(self._rng.integers(len(numeric)))]
                spec = AggregateSpec(function, measure)
                select = f"{function.value.upper()}({measure})"
            where = " AND ".join(self._predicate_sql(p) for p in predicates)
            entries.append(
                MixedWorkloadQuery(
                    sql=f"SELECT {select} FROM {self._table} WHERE {where}",
                    query=ScalarAggregateQuery(
                        aggregate=spec, predicates=tuple(predicates)
                    ),
                    shape="scalar",
                )
            )
        return entries

    def group_by_queries(
        self, n_queries: int, n_predicates: int = 1
    ) -> list[MixedWorkloadQuery]:
        """(Filtered) GROUP BY aggregates over one or two grouping columns."""
        names = self._relation.attribute_names
        numeric = self._numeric_attributes()
        entries = []
        functions = [AggregateFunction.COUNT]
        if numeric:
            functions += [AggregateFunction.SUM, AggregateFunction.AVG]
        for index in range(n_queries):
            function = functions[index % len(functions)]
            n_group = 1 + index % min(2, len(names))
            picked = self._rng.choice(len(names), size=n_group, replace=False)
            group_by = tuple(names[int(i)] for i in sorted(picked))
            remaining = [name for name in names if name not in group_by]
            predicates: list[Predicate] = []
            if remaining and n_predicates:
                chosen = self._rng.choice(
                    len(remaining), size=min(n_predicates, len(remaining)), replace=False
                )
                predicates = self._random_predicates(
                    [remaining[int(i)] for i in chosen], kind_offset=index
                )
            if function is AggregateFunction.COUNT:
                spec = AggregateSpec(AggregateFunction.COUNT)
                select = "COUNT(*)"
            else:
                measure = numeric[int(self._rng.integers(len(numeric)))]
                spec = AggregateSpec(function, measure)
                select = f"{function.value.upper()}({measure})"
            where = (
                " WHERE " + " AND ".join(self._predicate_sql(p) for p in predicates)
                if predicates
                else ""
            )
            columns = ", ".join(group_by)
            entries.append(
                MixedWorkloadQuery(
                    sql=(
                        f"SELECT {columns}, {select} FROM {self._table}{where} "
                        f"GROUP BY {columns}"
                    ),
                    query=GroupByQuery(
                        group_by=group_by, aggregate=spec, predicates=tuple(predicates)
                    ),
                    shape="group-by",
                )
            )
        return entries

    def analytic_queries(
        self, n_queries: int, n_predicates: int = 1
    ) -> list[MixedWorkloadQuery]:
        """Analytic (table-shaped) queries cycling through the rich surface.

        Five variants rotate per entry: multi-aggregate with ORDER BY/LIMIT,
        HAVING over an aliased COUNT, a partitioned RANK window, a running
        SUM window, and a group-less multi-aggregate table.  Every statement
        parses back to an :class:`AnalyticQuery` whose compiled plan key
        equals the hand-built AST's key.
        """
        names = self._relation.attribute_names
        numeric = self._numeric_attributes()
        entries = []
        for index in range(n_queries):
            variant = index % 5
            n_group = 1 + index % min(2, len(names))
            picked = self._rng.choice(len(names), size=n_group, replace=False)
            group_by = tuple(names[int(i)] for i in sorted(picked))
            remaining = [name for name in names if name not in group_by]
            predicates: tuple[Predicate, ...] = ()
            if remaining and n_predicates and index % 2:
                chosen = self._rng.choice(
                    len(remaining), size=min(n_predicates, len(remaining)), replace=False
                )
                predicates = tuple(
                    self._random_predicates(
                        [remaining[int(i)] for i in chosen], kind_offset=index
                    )
                )
            where = (
                " WHERE " + " AND ".join(self._predicate_sql(p) for p in predicates)
                if predicates
                else ""
            )
            columns = ", ".join(group_by)
            measure = (
                numeric[int(self._rng.integers(len(numeric)))] if numeric else None
            )
            if variant == 0 and measure is not None:
                sql = (
                    f"SELECT {columns}, COUNT(*) AS n, SUM({measure}) AS total "
                    f"FROM {self._table}{where} GROUP BY {columns} "
                    f"ORDER BY n DESC, {group_by[0]} LIMIT 3"
                )
                query: Query = AnalyticQuery(
                    group_by=group_by,
                    aggregates=(
                        AggregateSpec(AggregateFunction.COUNT, alias="n"),
                        AggregateSpec(AggregateFunction.SUM, measure, alias="total"),
                    ),
                    predicates=predicates,
                    order_by=(
                        OrderKey("n", descending=True),
                        OrderKey(group_by[0]),
                    ),
                    limit=3,
                )
            elif variant == 1:
                threshold = float(index % 3)
                sql = (
                    f"SELECT {columns}, COUNT(*) AS n FROM {self._table}{where} "
                    f"GROUP BY {columns} HAVING n > {threshold:g} "
                    f"ORDER BY {group_by[0]}"
                )
                query = AnalyticQuery(
                    group_by=group_by,
                    aggregates=(AggregateSpec(AggregateFunction.COUNT, alias="n"),),
                    predicates=predicates,
                    having=(HavingPredicate("n", Comparison.GT, threshold),),
                    order_by=(OrderKey(group_by[0]),),
                )
            elif variant == 2:
                partition = group_by[:1]
                sql = (
                    f"SELECT {columns}, COUNT(*) AS n, RANK() OVER "
                    f"(PARTITION BY {partition[0]} ORDER BY count(*) DESC) AS r "
                    f"FROM {self._table}{where} GROUP BY {columns} ORDER BY r"
                )
                query = AnalyticQuery(
                    group_by=group_by,
                    aggregates=(AggregateSpec(AggregateFunction.COUNT, alias="n"),),
                    predicates=predicates,
                    windows=(
                        WindowSpec(
                            WindowFunction.RANK,
                            "r",
                            partition_by=partition,
                            order_by=(OrderKey("count(*)", descending=True),),
                        ),
                    ),
                    order_by=(OrderKey("r"),),
                )
            elif variant == 3:
                sql = (
                    f"SELECT {columns}, COUNT(*) AS n, SUM(n) OVER "
                    f"(ORDER BY {group_by[0]}) AS running "
                    f"FROM {self._table}{where} GROUP BY {columns}"
                )
                query = AnalyticQuery(
                    group_by=group_by,
                    aggregates=(AggregateSpec(AggregateFunction.COUNT, alias="n"),),
                    predicates=predicates,
                    windows=(
                        WindowSpec(
                            WindowFunction.SUM,
                            "running",
                            target="n",
                            order_by=(OrderKey(group_by[0]),),
                        ),
                    ),
                )
            else:  # group-less multi-aggregate table
                if measure is not None:
                    sql = (
                        f"SELECT COUNT(*) AS n, AVG({measure}) AS mean "
                        f"FROM {self._table}{where}"
                    )
                    query = AnalyticQuery(
                        aggregates=(
                            AggregateSpec(AggregateFunction.COUNT, alias="n"),
                            AggregateSpec(AggregateFunction.AVG, measure, alias="mean"),
                        ),
                        predicates=predicates,
                    )
                else:
                    sql = f"SELECT COUNT(*) AS n FROM {self._table}{where} LIMIT 1"
                    query = AnalyticQuery(
                        aggregates=(AggregateSpec(AggregateFunction.COUNT, alias="n"),),
                        predicates=predicates,
                        limit=1,
                    )
            entries.append(MixedWorkloadQuery(sql=sql, query=query, shape="table"))
        return entries

    def generate(
        self,
        n_point: int = 4,
        n_scalar: int = 4,
        n_group_by: int = 4,
        n_analytic: int = 0,
    ) -> list[MixedWorkloadQuery]:
        """A workload covering every SQL-expressible query shape."""
        return (
            self.point_queries(n_point)
            + self.scalar_queries(n_scalar)
            + self.group_by_queries(n_group_by)
            + self.analytic_queries(n_analytic)
        )
