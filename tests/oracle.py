"""A naive row-at-a-time reference engine for the differential harness.

This module reimplements the *semantics* of the weighted query engine in
deliberately simple Python — per-row predicate evaluation, sequential
per-group accumulation, list-based HAVING / window / ORDER BY / LIMIT
pipelines — sharing no code with the columnar kernels or the plan IR.
``tests/test_sql_differential.py`` asserts exact (``==``) equality between
this oracle and every real execution path over randomly generated queries.

Exactness is by construction, not tolerance.  The engine's float contract
(pinned by ``tests/test_plan_ir.py``) is:

* scalar reductions use numpy's pairwise summation over the masked rows in
  row order — the oracle rebuilds the identical operand array from its own
  row-at-a-time match list and reduces it with the same ``np.ndarray.sum``;
* grouped reductions scatter-add with ``np.bincount``, which accumulates
  C doubles sequentially in row order — bit-identical to the oracle's
  ``total = total + value`` Python-float loop;
* AVG divides the two, guarded to 0.0 for non-positive weight totals;
* the analytic pipeline only selects, sorts, ranks, and sequentially sums
  values produced above, so mirroring the order of those operations is
  enough for bit-identity.

Everything else — predicate bucketization, group ordering, rank/running-sum
semantics, column resolution — is re-derived from the documented semantics
in ``repro.query.ast`` and ``repro.plan.analytics``.

A second, smaller reference lives at the bottom: the Bayesian network's
consensus over its ``K`` generated samples as the plain loop it used to be
(:func:`per_sample_consensus` — one fresh columnar executor per sample,
answers combined by :func:`intersect_and_average` or the plain mean).
``tests/test_generated_stack.py`` asserts the stacked ``(sample, group)``
pass in ``repro.core.evaluators`` ``==`` this loop.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import QueryError
from repro.query import (
    AnalyticQuery,
    Comparison,
    GroupByQuery,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
)
from repro.schema import Relation
from repro.sql.engine import QueryResult, TableResult


class ReferenceEngine:
    """Row-at-a-time weighted query evaluation over one relation."""

    def __init__(self, relation: Relation):
        self._relation = relation
        self._weights = [float(w) for w in relation.weights]

    # ------------------------------------------------------------------
    # Predicate semantics (mirrors repro.query.ast.Predicate.mask)
    # ------------------------------------------------------------------
    def _row_matcher(self, predicate: Predicate):
        """Return ``code -> bool`` for one predicate on one attribute."""
        domain = self._relation.schema[predicate.attribute].domain
        comparison = predicate.comparison
        if comparison is Comparison.IN:
            raw = predicate.value
            values = raw if isinstance(raw, (list, tuple, set)) else [raw]
            codes = {domain.code_of(value) for value in values}
            codes.discard(None)
            return lambda code: code in codes
        code = domain.code_of(predicate.value)
        if comparison is Comparison.EQ:
            return lambda c: c == code if code is not None else False
        if comparison is Comparison.NE:
            return lambda c: True if code is None else c != code
        # Ordered comparisons run against the position of the largest domain
        # value not exceeding the literal.
        threshold = code
        if threshold is None:
            positions = [
                index
                for index, value in enumerate(domain.values)
                if value <= predicate.value
            ]
            threshold = max(positions) if positions else None
        if threshold is None:
            always = comparison in (Comparison.GT, Comparison.GE)
            return lambda c: always
        if comparison is Comparison.LT:
            return lambda c: c < threshold
        if comparison is Comparison.LE:
            return lambda c: c <= threshold
        if comparison is Comparison.GT:
            return lambda c: c > threshold
        if comparison is Comparison.GE:
            return lambda c: c >= threshold
        raise QueryError(f"unsupported comparison {comparison}")

    def _matching_rows(self, predicates) -> list[int]:
        """Indices of rows satisfying every predicate, in row order."""
        tests = [
            (self._relation.column(p.attribute), self._row_matcher(p))
            for p in predicates
        ]
        return [
            row
            for row in range(self._relation.n_rows)
            if all(matcher(int(column[row])) for column, matcher in tests)
        ]

    def _measure(self, attribute: str) -> list[float]:
        """Decoded numeric values of one column, as Python floats."""
        domain = self._relation.schema[attribute].domain
        lookup = [float(value) for value in domain.values]
        return [lookup[int(code)] for code in self._relation.column(attribute)]

    # ------------------------------------------------------------------
    # Scalar reductions (mirror the pairwise-sum contract of scalar_reduce)
    # ------------------------------------------------------------------
    def _scalar(self, function: str, attribute: str | None, rows: list[int]) -> float:
        weights = np.asarray([self._weights[row] for row in rows], dtype=np.float64)
        if function == "count":
            return float(weights.sum())
        measure = self._measure(attribute)
        products = np.asarray(
            [self._weights[row] * measure[row] for row in rows], dtype=np.float64
        )
        if function == "sum":
            return float(products.sum())
        if function == "avg":
            total = weights.sum()
            return float(products.sum() / total) if total > 0 else 0.0
        raise QueryError(f"unsupported aggregate function {function}")

    # ------------------------------------------------------------------
    # Grouped reductions (mirror the sequential-accumulation contract of
    # the bincount scatter-add)
    # ------------------------------------------------------------------
    def _grouped(
        self, group_by: tuple[str, ...], specs, rows: list[int]
    ) -> tuple[list[tuple[int, ...]], list[tuple[Any, ...]], list[list[float]]]:
        """Per-group values for several aggregate specs over one row set.

        Returns ``(codes, decoded, columns)``: the encoded group tuples in
        ascending order, the decoded group tuples aligned with them, and one
        value list per spec aligned the same way.  Groups whose weight total
        is not positive are dropped (matching the kernels' ``positive`` set,
        which is shared by every spec of a family).
        """
        key_columns = [self._relation.column(name) for name in group_by]
        group_rows: dict[tuple[int, ...], list[int]] = {}
        for row in rows:
            codes = tuple(int(column[row]) for column in key_columns)
            group_rows.setdefault(codes, []).append(row)

        totals: dict[tuple[int, ...], float] = {}
        for codes in group_rows:
            total = 0.0
            for row in group_rows[codes]:
                total = total + self._weights[row]
            totals[codes] = total
        ordered = sorted(codes for codes in group_rows if totals[codes] > 0)

        columns: list[list[float]] = []
        for spec in specs:
            function = spec.function.value
            if function == "count":
                columns.append([totals[codes] for codes in ordered])
                continue
            measure = self._measure(spec.attribute)
            sums: dict[tuple[int, ...], float] = {}
            for codes in ordered:
                value = 0.0
                for row in group_rows[codes]:
                    value = value + self._weights[row] * measure[row]
                sums[codes] = value
            if function == "sum":
                columns.append([sums[codes] for codes in ordered])
            elif function == "avg":
                columns.append([sums[codes] / totals[codes] for codes in ordered])
            else:
                raise QueryError(f"unsupported aggregate function {function}")

        domains = [self._relation.schema[name].domain for name in group_by]
        decoded = [
            tuple(domain.decode(code) for domain, code in zip(domains, codes))
            for codes in ordered
        ]
        return list(ordered), decoded, columns

    # ------------------------------------------------------------------
    # Query dispatch
    # ------------------------------------------------------------------
    def execute(self, query) -> float | QueryResult | TableResult:
        """Evaluate one AST query, returning the engine's result shape."""
        if isinstance(query, PointQuery):
            predicates = [
                Predicate(name, Comparison.EQ, value)
                for name, value in query.assignment
            ]
            return self._scalar("count", None, self._matching_rows(predicates))
        if isinstance(query, ScalarAggregateQuery):
            spec = query.aggregate
            return self._scalar(
                spec.function.value,
                spec.attribute,
                self._matching_rows(query.predicates),
            )
        if isinstance(query, GroupByQuery):
            _, decoded, columns = self._grouped(
                tuple(query.group_by),
                [query.aggregate],
                self._matching_rows(query.predicates),
            )
            return QueryResult(
                tuple(query.group_by), dict(zip(decoded, columns[0]))
            )
        if isinstance(query, AnalyticQuery):
            return self._analytic(query)
        raise QueryError(f"oracle does not support {type(query).__name__}")

    # ------------------------------------------------------------------
    # Analytic pipeline (independent list-based HAVING/window/sort/limit)
    # ------------------------------------------------------------------
    def _analytic(self, query: AnalyticQuery) -> TableResult:
        rows = self._matching_rows(query.predicates)
        specs = query.aggregates
        n_group = len(query.group_by)
        if query.group_by:
            codes, decoded, agg_columns = self._grouped(
                tuple(query.group_by), specs, rows
            )
        else:
            codes, decoded = [()], [()]
            agg_columns = [
                [self._scalar(spec.function.value, spec.attribute, rows)]
                for spec in specs
            ]

        def aggregate_column(target: str) -> int | None:
            for index, spec in enumerate(specs):
                if target == spec.label or target == spec.expression:
                    return n_group + index
            return None

        def resolve(target: str, windows: bool) -> int:
            if target in query.group_by:
                return query.group_by.index(target)
            column = aggregate_column(target)
            if column is not None:
                return column
            if windows:
                for index, window in enumerate(query.windows):
                    if target == window.alias:
                        return n_group + len(specs) + index
            raise QueryError(f"oracle cannot resolve column {target!r}")

        # ``selection`` holds base-row indexes; window value lists are
        # aligned with selection *positions*, mirroring the real pipeline.
        selection = list(range(len(decoded)))
        window_values: dict[int, list] = {}

        def key_value(column: int, position: int) -> float:
            base = selection[position]
            if column < n_group:
                return float(codes[base][column])
            index = column - n_group
            if index < len(specs):
                return float(agg_columns[index][base])
            return float(window_values[column][position])

        def sort_positions(
            partition: tuple[int, ...], order: tuple[tuple[int, bool], ...]
        ) -> list[int]:
            def sort_key(position: int) -> tuple:
                keys = [codes[selection[position]][column] for column in partition]
                for column, descending in order:
                    value = key_value(column, position)
                    keys.append(-value if descending else value)
                return tuple(keys)

            return sorted(range(len(selection)), key=sort_key)

        # HAVING
        if query.having:
            conditions = []
            for condition in query.having:
                column = aggregate_column(condition.target)
                if column is None:
                    raise QueryError(
                        f"oracle cannot resolve HAVING target {condition.target!r}"
                    )
                conditions.append((column, condition.comparison, float(condition.value)))

            def satisfies(position: int) -> bool:
                for column, comparison, threshold in conditions:
                    value = agg_columns[column - n_group][selection[position]]
                    if comparison is Comparison.EQ:
                        ok = value == threshold
                    elif comparison is Comparison.NE:
                        ok = value != threshold
                    elif comparison is Comparison.LT:
                        ok = value < threshold
                    elif comparison is Comparison.LE:
                        ok = value <= threshold
                    elif comparison is Comparison.GT:
                        ok = value > threshold
                    elif comparison is Comparison.GE:
                        ok = value >= threshold
                    else:
                        raise QueryError(f"unsupported HAVING comparison {comparison}")
                    if not ok:
                        return False
                return True

            selection = [
                selection[position]
                for position in range(len(selection))
                if satisfies(position)
            ]

        # Window functions
        for offset, window in enumerate(query.windows):
            output = n_group + len(specs) + offset
            partition = tuple(query.group_by.index(name) for name in window.partition_by)
            order = tuple(
                (resolve(key.target, windows=False), key.descending)
                for key in window.order_by
            )
            permutation = sort_positions(partition, order)
            values: list = [None] * len(selection)
            if window.function.value == "rank":
                previous_partition: Any = object()
                partition_start = 0
                rank = 1
                previous_key: Any = None
                for index, position in enumerate(permutation):
                    base = selection[position]
                    part = tuple(codes[base][column] for column in partition)
                    order_key = tuple(
                        key_value(column, position) for column, _ in order
                    )
                    if part != previous_partition:
                        previous_partition = part
                        partition_start = index
                        rank = 1
                        previous_key = order_key
                    elif order_key != previous_key:
                        rank = index - partition_start + 1
                        previous_key = order_key
                    values[position] = rank
            else:
                source = aggregate_column(window.target)
                if source is None:
                    raise QueryError(
                        f"oracle cannot resolve window source {window.target!r}"
                    )
                source_column = agg_columns[source - n_group]
                if window.order_by:
                    previous_partition = object()
                    accumulator = 0.0
                    for position in permutation:
                        base = selection[position]
                        part = tuple(codes[base][column] for column in partition)
                        if part != previous_partition:
                            previous_partition = part
                            accumulator = 0.0
                        accumulator = accumulator + float(source_column[base])
                        values[position] = accumulator
                else:
                    totals: dict[tuple, float] = {}
                    for position in permutation:
                        base = selection[position]
                        part = tuple(codes[base][column] for column in partition)
                        totals[part] = totals.get(part, 0.0) + float(source_column[base])
                    for position in permutation:
                        base = selection[position]
                        part = tuple(codes[base][column] for column in partition)
                        values[position] = totals[part]
            window_values[output] = values

        # ORDER BY
        if query.order_by:
            order = tuple(
                (resolve(key.target, windows=True), key.descending)
                for key in query.order_by
            )
            permutation = sort_positions((), order)
            selection = [selection[position] for position in permutation]
            for column, values in window_values.items():
                window_values[column] = [values[position] for position in permutation]

        # LIMIT
        if query.limit is not None:
            selection = selection[: query.limit]
            for column, values in window_values.items():
                window_values[column] = values[: query.limit]

        ordered_windows = [window_values[column] for column in sorted(window_values)]
        out_rows = []
        for position, base in enumerate(selection):
            row = list(decoded[base])
            row.extend(float(column[base]) for column in agg_columns)
            row.extend(column[position] for column in ordered_windows)
            out_rows.append(tuple(row))
        return TableResult(query.labels, out_rows, group_by=tuple(query.group_by))


# ----------------------------------------------------------------------
# The K-world consensus, as a loop (reference for the stacked pass)
# ----------------------------------------------------------------------
def intersect_and_average(
    group_by: tuple[str, ...], results: list[QueryResult]
) -> QueryResult:
    """The network-side combination of ``K`` generated answers: a group
    survives only if present in every result; its value is the arithmetic
    mean of its ``K`` values.  No results give the empty answer."""
    if not results:
        return QueryResult(group_by, {})
    common = set(results[0].groups())
    for result in results[1:]:
        common &= result.groups()
    averaged = {
        group: float(np.mean([result.value(group) for result in results]))
        for group in common
    }
    return QueryResult(group_by, averaged)


def per_sample_consensus(samples: list[Relation], queries: list) -> list:
    """Answer scalar / GROUP BY / join queries one generated sample at a
    time — a fresh executor per relation, one ``execute`` per
    ``(query, sample)`` pair — and combine each query's ``K`` answers."""
    from repro.plan import ColumnarExecutor

    executors = [ColumnarExecutor(sample) for sample in samples]
    answers = []
    for query in queries:
        worlds = [executor.execute(query) for executor in executors]
        if isinstance(worlds[0], QueryResult):
            answers.append(intersect_and_average(worlds[0].group_by, worlds))
        else:
            answers.append(float(np.mean(worlds)))
    return answers
