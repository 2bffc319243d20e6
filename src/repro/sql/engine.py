"""Weighted query execution over relations.

This is the reproduction's stand-in for the Postgres instance used by the
paper's prototype: point queries, filtered GROUP BY aggregates, and the
self-join query of Table 5 are evaluated directly over the (reweighted)
in-memory relations.  ``COUNT(*)`` is evaluated as ``SUM(weight)`` exactly as
Sec. 4.1 describes.

Since the logical-plan IR landed, :class:`WeightedQueryEngine` is a thin
facade over :class:`repro.plan.ColumnarExecutor`: queries are compiled once
into :class:`~repro.plan.LogicalPlan` trees and executed by vectorized
columnar kernels — cached boolean predicate masks combined with bitwise ops,
packed-key group codes (ascending code order) with scatter-add group-bys,
and masked weighted reductions — instead of materializing a filtered
relation per query.  Answers are bit-identical
to the historical filter-then-reduce implementation.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..obs.trace import NULL_TRACER
from ..query.ast import (
    GroupByQuery,
    JoinGroupByQuery,
    PointQuery,
    Query,
    ScalarAggregateQuery,
)
from ..schema import Relation


class QueryResult:
    """A GROUP BY query result: mapping from group tuples to aggregate values.

    Two results are equal iff they group over the same attributes and map
    the same groups to the same (bit-identical) values — which is what the
    bit-identity tests between execution paths assert directly.
    """

    def __init__(self, group_by: tuple[str, ...], values: dict[tuple[Any, ...], float]):
        self.group_by = tuple(group_by)
        self._values = dict(values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values.items())

    def __contains__(self, group: tuple[Any, ...]) -> bool:
        return tuple(group) in self._values

    def __eq__(self, other: object) -> bool:
        # ``NotImplemented`` here is the dunder protocol, not an error
        # sentinel leaking out: Python turns it into ``False`` (or the
        # reflected comparison) for ``==`` against foreign types.
        # ``tests/test_sql_surface.py`` pins that behavior.
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self.group_by == other.group_by and self._values == other._values

    def __hash__(self) -> int:
        return hash((self.group_by, frozenset(self._values.items())))

    def value(self, group: tuple[Any, ...], default: float = 0.0) -> float:
        """Aggregate value for one group."""
        return self._values.get(tuple(group), default)

    def groups(self) -> set[tuple[Any, ...]]:
        """All group keys in the result."""
        return set(self._values)

    def as_dict(self) -> dict[tuple[Any, ...], float]:
        """A copy of the underlying mapping."""
        return dict(self._values)

    def __repr__(self) -> str:
        return f"QueryResult(group_by={self.group_by!r}, n_groups={len(self)})"


class TableResult:
    """An ordered, labelled table — the result of analytic (table-shaped)
    queries: multi-aggregate GROUP BYs, HAVING, window functions, ORDER
    BY/LIMIT.

    Unlike :class:`QueryResult` (an unordered group→value mapping), row
    order is part of the result's identity: ORDER BY/LIMIT semantics live
    in the row sequence.  Two tables are equal iff they have the same
    column labels, the same grouping attributes, and bit-identical rows in
    the same order.
    """

    def __init__(
        self,
        columns: tuple[str, ...],
        rows,
        group_by: tuple[str, ...] = (),
    ):
        self.columns = tuple(columns)
        self.rows = tuple(tuple(row) for row in rows)
        self.group_by = tuple(group_by)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row {row!r} has {len(row)} values but the table has "
                    f"{len(self.columns)} columns"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        # Same dunder convention as QueryResult: NotImplemented defers to
        # Python's fallback for cross-type comparisons.
        if not isinstance(other, TableResult):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.group_by == other.group_by
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.columns, self.group_by, self.rows))

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(
                f"unknown column {name!r}; table columns are {list(self.columns)}"
            )
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as label→value dictionaries, in row order."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return (
            f"TableResult(columns={self.columns!r}, n_rows={len(self.rows)})"
        )


class WeightedQueryEngine:
    """Evaluate queries against a weighted relation via the plan IR.

    Every query — AST object, compiled plan, or SQL text — is compiled into
    a :class:`~repro.plan.LogicalPlan` and executed by the relation-bound
    :class:`~repro.plan.ColumnarExecutor`; the engine keeps no query logic
    of its own anymore.
    """

    def __init__(self, relation: Relation, executor=None):
        from ..plan.executor import ColumnarExecutor

        self._executor = (
            executor if executor is not None else ColumnarExecutor(relation)
        )

    @property
    def relation(self) -> Relation:
        """The relation queries run against."""
        return self._executor.relation

    @property
    def executor(self):
        """The columnar plan executor behind this engine."""
        return self._executor

    @property
    def mask_cache(self):
        """The engine's predicate-mask cache (shared with the planner)."""
        return self._executor.mask_cache

    # ------------------------------------------------------------------
    # Execution (every shape is one call of the executor)
    # ------------------------------------------------------------------
    def execute(self, query: Query, tracer=NULL_TRACER) -> float | QueryResult:
        """Evaluate any supported query type (or compiled plan, or SQL)."""
        return self._executor.execute(query, tracer=tracer)

    def execute_batch(self, queries, tracer=NULL_TRACER, cancel=None) -> list:
        """Evaluate a batch, plan by plan.

        Answers come back in submission order and are bit-identical to
        calling :meth:`execute` per query.  ``cancel`` is an optional
        cancellation token polled before every plan.  See
        :meth:`repro.plan.ColumnarExecutor.execute_batch`.
        """
        return self._executor.execute_batch(queries, tracer=tracer, cancel=cancel)

    def point(self, assignment: Mapping[str, Any]) -> float:
        """``SELECT SUM(weight) WHERE A1=v1 AND ...`` — the weighted COUNT(*)."""
        return self.execute(PointQuery(assignment))

    def scalar(self, query: ScalarAggregateQuery) -> float:
        """A filtered aggregate with no grouping, returned as a single number."""
        return self.execute(query)

    def group_by(self, query: GroupByQuery) -> QueryResult:
        """Evaluate a filtered GROUP BY aggregate with weighted semantics."""
        return self.execute(query)

    def analytic(self, query) -> TableResult:
        """Evaluate a table-shaped query (multi-aggregate / HAVING / windows /
        ORDER BY / LIMIT): an :class:`~repro.query.AnalyticQuery` AST or an
        already-compiled table-shaped plan."""
        return self.execute(query)

    def join_group_by(self, query: JoinGroupByQuery) -> QueryResult:
        """Evaluate a weighted self-join GROUP BY."""
        return self.execute(query)


def answer_point_query(relation: Relation, assignment: Mapping[str, Any]) -> float:
    """Convenience function: weighted point-query answer over a relation."""
    return WeightedQueryEngine(relation).point(assignment)
