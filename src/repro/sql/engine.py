"""Result types of weighted query execution, and the benchmark's old engine.

The paper's prototype answers queries over the reweighted samples stored in
Postgres; here the plan layer's :class:`repro.plan.ColumnarExecutor` runs
them over in-memory relations, ``COUNT(*)`` evaluated as ``SUM(weight)``
exactly as Sec. 4.1 describes.  This module holds the answers' types:
:class:`QueryResult` (an unordered group -> value mapping) and
:class:`TableResult` (an ordered, labelled table).

:class:`WeightedQueryEngine` survives only because the benchmark's traced
replay (``bench/layers.py``) imports it to name a span layer.  It is a
leaf: no module of the package imports it, and the evaluators hold their
:class:`~repro.plan.ColumnarExecutor` directly.
"""

from __future__ import annotations

from typing import Any

from ..obs.trace import NULL_TRACER
from ..query.ast import Query
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
    """A relation's :class:`~repro.plan.ColumnarExecutor` behind the two
    methods the benchmark's span layer wraps (see the module docstring)."""

    def __init__(self, relation: Relation):
        from ..plan.executor import ColumnarExecutor

        self._executor = ColumnarExecutor(relation)

    def execute(self, query: Query, tracer=NULL_TRACER) -> float | QueryResult:
        """Evaluate any supported query type (or compiled plan, or SQL)."""
        return self._executor.execute(query, tracer=tracer)

    def execute_batch(self, queries, tracer=NULL_TRACER, cancel=None) -> list:
        """Evaluate a batch, plan by plan, in submission order
        (:meth:`repro.plan.ColumnarExecutor.execute_batch`)."""
        return self._executor.execute_batch(queries, tracer=tracer, cancel=cancel)
