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

A third reference is the three partitioned kernels selecting their rows by
boolean fancy-indexing, as they did before the selection vector
(:func:`partitioned_scalar_reduce_reference` and its two siblings);
``tests/test_selection_kernels.py`` asserts ``repro.plan.kernels`` ``==``
them.

A fourth reference is the model build written as the loops it used to be:
IPF over boolean masks cut from the dense incidence matrix
(:func:`ipf_reference`), and the constrained CPT fit with its
per-group-per-configuration constraint builder, dict-walking count tables
and row-at-a-time renormalization (:func:`linear_constraints_reference`,
:func:`learn_parameters_reference`).  ``tests/test_fit_equivalence.py``
asserts the index-list sweep and the array-built factor fit ``==`` them.

A fifth reference is ``Relation.group_codes`` as one row-wise ``np.unique``
over the stacked code columns (:func:`group_codes_reference`);
``tests/test_schema_relation.py`` asserts the packed-key codes ``==`` it.
Beside it, forward sampling as one ``Generator.choice`` per parent
configuration (:func:`forward_sample_reference`);
``tests/test_forward_sampling.py`` asserts ``ForwardSampler.sample_codes``
draws the same codes and leaves the generator in the same state.

A sixth reference is Themis's hybrid rule written out over the others
(:func:`hybrid_reference`): point, scalar and group-less table queries are
answered by :class:`ReferenceEngine` over the weighted sample when any
sample row matches, otherwise by exact inference (points) or
:func:`network_reference`, the ``K``-world consensus; GROUP BY, join and
grouped-table queries take the sample's groups with the sample's values and
add the groups only the network found — a table per aggregate, zipped back
into group rows by :func:`merged_table` and run through the oracle's own
list pipeline (:func:`analytic_pipeline`), so no table-assembly code is
shared with the engine.  The self-join's sample side is
:func:`join_reference`, row at a time.  ``tests/test_evaluators.py`` and the
differential sweep assert every door of the system ``==`` it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import QueryError
from repro.query import (
    AnalyticQuery,
    Comparison,
    GroupByQuery,
    JoinGroupByQuery,
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
    # Scalar reductions (mirror the pairwise-sum contract of
    # partitioned_scalar_reduce)
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
        return analytic_pipeline(query, codes, decoded, agg_columns)


def analytic_pipeline(query: AnalyticQuery, codes, decoded, agg_columns) -> TableResult:
    """HAVING / window / ORDER BY / LIMIT over group rows, as lists.

    ``codes`` are the rows' group codes (ascending), ``decoded`` their group
    tuples and ``agg_columns`` one value list per aggregate, all aligned.
    """
    specs = query.aggregates
    n_group = len(query.group_by)

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


def merged_table(
    plan, per_spec_values: list[dict[tuple[Any, ...], float]], schema
) -> TableResult:
    """A table from per-aggregate group -> value dicts, through the list
    pipeline (:func:`analytic_pipeline`).

    The references answer a grouped table per aggregate and zip the
    per-spec dicts back into group rows here.  Rows are ordered ascending by
    encoded group codes; group values outside the schema's domain get
    deterministic past-the-domain codes, ordered by ``repr``.
    """
    groups: dict[tuple[Any, ...], None] = {}
    for values in per_spec_values:
        for group in values:
            groups.setdefault(group, None)
    domains = [schema[name].domain for name in plan.query.group_by]
    fallback: list[dict[Any, int]] = []
    for column, domain in enumerate(domains):
        unknown = sorted(
            {group[column] for group in groups if domain.code_of(group[column]) is None},
            key=repr,
        )
        fallback.append({value: len(domain) + index for index, value in enumerate(unknown)})

    def group_codes(group: tuple[Any, ...]) -> tuple[int, ...]:
        codes = (domain.code_of(value) for domain, value in zip(domains, group))
        return tuple(
            fallback[column][group[column]] if code is None else code
            for column, code in enumerate(codes)
        )

    ordered = sorted(groups, key=group_codes) if domains else [()]
    agg_columns = [
        [values.get(group, 0.0) for group in ordered] for values in per_spec_values
    ]
    return analytic_pipeline(
        plan.query, [group_codes(group) for group in ordered], ordered, agg_columns
    )


def network_reference(evaluator, queries: list) -> list:
    """The network's answers to scalar / GROUP BY / join / table queries as
    the per-sample loop: tables go through their per-aggregate parts."""
    from dataclasses import replace

    from repro.plan import PlanCompiler

    samples = evaluator.generated_samples()
    schema = evaluator.network.schema
    compiler = PlanCompiler(schema)
    answers = []
    for query in queries:
        plan = compiler.compile(query)
        if plan.shape != "table":
            answers.extend(per_sample_consensus(samples, [plan.query]))
            continue
        specs = [replace(spec, alias=None) for spec in plan.query.aggregates]
        if plan.group_keys:
            parts = [
                GroupByQuery(plan.query.group_by, spec, plan.query.predicates)
                for spec in specs
            ]
            per_spec = [part.as_dict() for part in per_sample_consensus(samples, parts)]
        else:
            parts = [ScalarAggregateQuery(spec, plan.query.predicates) for spec in specs]
            per_spec = [{(): part} for part in per_sample_consensus(samples, parts)]
        answers.append(merged_table(plan, per_spec, schema))
    return answers


def join_reference(relation: Relation, query: JoinGroupByQuery) -> QueryResult:
    """The weighted self-join GROUP BY COUNT, row at a time.

    Each side's ``(join key, group)`` weight totals accumulate in row order
    (matching zero-weight rows keep their group, at 0.0); the joined weight
    of a pair of groups is ``sum w_i * w_j`` over the sides' matching join
    keys, accumulated in ascending ``(join key, group)`` code order.
    """
    engine = ReferenceEngine(relation)

    def side(join: str, group: str, predicates) -> list:
        joins, groups = relation.column(join), relation.column(group)
        totals: dict[tuple[int, int], float] = {}
        for row in engine._matching_rows(predicates):
            codes = (int(joins[row]), int(groups[row]))
            totals[codes] = totals.get(codes, 0.0) + engine._weights[row]
        join_domain, group_domain = (relation.schema[name].domain for name in (join, group))
        return [
            (join_domain.decode(j), group_domain.decode(g), weight)
            for (j, g), weight in sorted(totals.items())
        ]

    left = side(query.left_join, query.left_group, query.left_predicates)
    right = side(query.right_join, query.right_group, query.right_predicates)
    joined: dict[tuple[Any, Any], float] = {}
    for join_value, left_group, left_weight in left:
        for other_value, right_group, right_weight in right:
            if other_value == join_value:
                key = (left_group, right_group)
                joined[key] = joined.get(key, 0.0) + left_weight * right_weight
    return QueryResult((query.left_group, query.right_group), joined)


def hybrid_reference(model, queries: list) -> list:
    """Themis's answers by the hybrid rule over the other references.

    ``model`` is a fitted :class:`~repro.core.model.ThemisModel`; queries
    are ASTs or SQL text.  Point, scalar and group-less table queries are
    answered from the weighted sample when any of its rows matches the
    filter, otherwise from the network: exact inference for points, the
    ``K``-world consensus for the rest.  GROUP BY, join and grouped-table
    queries keep the sample's groups and values and add the groups only
    the network found, per aggregate for tables.
    """
    from dataclasses import replace

    from repro.bayesnet import ExactInference
    from repro.plan import PlanCompiler

    sample = model.weighted_sample
    engine = ReferenceEngine(sample)
    network = model.bayes_net_evaluator
    inference = ExactInference(network.network)
    compiler = PlanCompiler(sample.schema)

    def union(sample_result: QueryResult, network_result: QueryResult) -> QueryResult:
        merged = sample_result.as_dict()
        for group, value in network_result:
            merged.setdefault(group, value)
        return QueryResult(sample_result.group_by, merged)

    answers = []
    for statement in queries:
        plan = compiler.compile(statement)
        query = plan.query
        if isinstance(query, JoinGroupByQuery):
            answers.append(
                union(join_reference(sample, query), network_reference(network, [query])[0])
            )
        elif isinstance(query, GroupByQuery):
            answers.append(
                union(engine.execute(query), network_reference(network, [query])[0])
            )
        elif plan.group_keys:
            parts = [
                GroupByQuery(query.group_by, replace(spec, alias=None), query.predicates)
                for spec in query.aggregates
            ]
            per_spec = [
                union(engine.execute(part), network_part).as_dict()
                for part, network_part in zip(parts, network_reference(network, parts))
            ]
            answers.append(merged_table(plan, per_spec, sample.schema))
        else:
            predicates = (
                [Predicate(name, Comparison.EQ, value) for name, value in query.assignment]
                if isinstance(query, PointQuery)
                else query.predicates
            )
            if engine._matching_rows(predicates):
                answers.append(engine.execute(query))
            elif isinstance(query, PointQuery):
                probability = inference.probability_or_zero(query.as_dict())
                answers.append(float(network.population_size * probability))
            else:
                answers.append(network_reference(network, [query])[0])
    return answers


# ----------------------------------------------------------------------
# The partitioned kernels by boolean fancy-indexing (reference for the
# selection-vector gather)
# ----------------------------------------------------------------------
def _part_group_bins_reference(relation: Relation, keys, partition):
    group_index, unique_rows = relation.group_codes(keys)
    n_groups = unique_rows.shape[0]
    if partition is None:
        return group_index, (1, n_groups)
    return partition.ids * n_groups + group_index, (partition.n_parts, n_groups)


def partitioned_scalar_reduce_reference(relation, mask, specs, partition=None):
    """``partitioned_scalar_reduce`` as it selected rows before: one
    ``array[mask]`` per operand, part bounds from ``np.flatnonzero``."""
    weights = relation.weights if mask is None else relation.weights[mask]
    if partition is None:
        slices = (slice(None),)
    else:
        bounds = partition.offsets
        if mask is not None:
            bounds = np.searchsorted(np.flatnonzero(mask), bounds)
        bounds = bounds.tolist()
        slices = [slice(low, high) for low, high in zip(bounds, bounds[1:])]
    results = []
    for function, measure in specs:
        totals = [float(weights[part].sum()) for part in slices]
        if function == "count":
            results.append(totals)
            continue
        products = weights * (measure if mask is None else measure[mask])
        sums = [float(np.sum(products[part])) for part in slices]
        if function == "sum":
            results.append(sums)
        else:
            results.append(
                [value / total if total > 0 else 0.0 for value, total in zip(sums, totals)]
            )
    return results


def partitioned_group_columns_reference(relation, keys, mask, specs, partition=None):
    """``partitioned_group_columns`` with ``bins[mask]`` / ``weights[mask]``
    / ``measure[mask]`` in front of the scatter-adds."""
    bins, shape = _part_group_bins_reference(relation, keys, partition)
    n_bins = shape[0] * shape[1]
    weights = relation.weights
    if mask is not None:
        bins = bins[mask]
        weights = weights[mask]
    weight_totals = np.bincount(bins, weights=weights, minlength=n_bins)
    per_spec = []
    for function, measure in specs:
        if function == "count":
            per_spec.append(weight_totals)
            continue
        selected = measure if mask is None else measure[mask]
        sums = np.bincount(bins, weights=weights * selected, minlength=n_bins)
        if function == "sum":
            per_spec.append(sums)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                per_spec.append(np.where(weight_totals > 0, sums / weight_totals, 0.0))
    return weight_totals.reshape(shape), [values.reshape(shape) for values in per_spec]


def partitioned_grouped_weight_totals_reference(relation, keys, masks, partition=None):
    """``partitioned_grouped_weight_totals`` with ``bins[mask]`` /
    ``weights[mask]`` per side."""
    bins, (n_parts, n_groups) = _part_group_bins_reference(relation, keys, partition)
    n_bins = n_parts * n_groups
    all_weights = relation.weights
    per_side = []
    for mask in masks:
        side_bins = bins if mask is None else bins[mask]
        weights = all_weights if mask is None else all_weights[mask]
        totals = np.bincount(side_bins, weights=weights, minlength=n_bins)
        present = np.flatnonzero(np.bincount(side_bins, minlength=n_bins))
        part_of, group_of = np.divmod(present, max(n_groups, 1))
        parts = [{} for _ in range(n_parts)]
        for part, group, total in zip(
            part_of.tolist(),
            relation.group_tuples(keys, group_of),
            totals[present].tolist(),
        ):
            parts[part][group] = total
        per_side.append(parts)
    return per_side


# ----------------------------------------------------------------------
# The model build, as loops (reference for IPF and the constrained CPT fit)
# ----------------------------------------------------------------------
def dense_incidence(sample: Relation, aggregates) -> tuple[np.ndarray, np.ndarray]:
    """``(G, y)``: one dense 0/1 row per aggregate group, one ``column ==
    code`` pass per group and attribute."""
    blocks, counts = [], []
    for aggregate in aggregates:
        columns = [sample.column(name) for name in aggregate.attributes]
        domains = [sample.schema[name].domain for name in aggregate.attributes]
        for values, count in aggregate.items():
            mask = np.ones(sample.n_rows, dtype=bool)
            for column, domain, value in zip(columns, domains, values):
                code = domain.code_of(value)
                if code is None:
                    mask = np.zeros(sample.n_rows, dtype=bool)
                    break
                mask &= column == code
            blocks.append(mask.astype(float))
            counts.append(float(count))
    return np.vstack(blocks), np.asarray(counts, dtype=float)


def ipf_reference(
    sample: Relation,
    aggregates,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    initial_weight: float = 1.0,
) -> tuple[np.ndarray, bool, int]:
    """Alg. 1 over boolean masks: ``(weights, converged, n_iterations)``.

    The violation after each sweep takes each group's achieved count as
    ``weights[mask].sum()``, one Python iteration per constraint.  The BLAS
    mat-vec ``G w`` would leave its summation order, and so whether the
    last bit meets ``tolerance=0.0``, to the library.
    """
    matrix, targets = dense_incidence(sample, aggregates)
    masks = [row.astype(bool) for row in matrix]
    weights = np.full(sample.n_rows, float(initial_weight), dtype=float)
    for iteration in range(1, max_iterations + 1):
        for mask, target in zip(masks, targets):
            if not mask.any():
                continue
            achieved = weights[mask].sum()
            if achieved > 0:
                if np.isclose(achieved, target):
                    continue
                with np.errstate(over="ignore"):
                    ratio = target / achieved
                if not np.isinf(ratio):
                    weights[mask] *= ratio
                    continue
            # Collapsed to zero, or so small that the ratio overflows.
            weights[mask] = target / mask.sum() if target > 0 else 0.0
        violations = [
            abs(weights[mask].sum() - target) / max(abs(target), 1.0)
            for mask, target in zip(masks, targets)
            if mask.any()
        ]
        if (max(violations) if violations else 0.0) <= tolerance:
            return weights, True, iteration
    return weights, False, max_iterations


def _config_matches(config, parents, parent_sizes, restrictions) -> bool:
    codes = {}
    remainder = config
    for name, size in zip(reversed(parents), reversed(parent_sizes)):
        codes[name] = remainder % size
        remainder //= size
    return all(codes[name] == code for name, code in restrictions.items())


def linear_constraints_reference(
    aggregates, node, parents, schema, parent_marginal, population_size
) -> tuple[np.ndarray, np.ndarray]:
    """``A vec(θ) = b`` of one factor: every group tested against every
    parent configuration, one at a time."""
    child_size = schema[node].size
    parent_sizes = [schema[name].size for name in parents]
    n_configs = int(np.prod(parent_sizes)) if parents else 1
    rows, targets = [], []
    for aggregate in aggregates:
        attributes = aggregate.attributes
        for values, count in aggregate.items():
            child_code = schema[node].domain.code_of(values[attributes.index(node)])
            restrictions = {
                name: schema[name].domain.code_of(values[attributes.index(name)])
                for name in attributes
                if name != node
            }
            if child_code is None or None in restrictions.values():
                continue
            row = np.zeros((n_configs, child_size), dtype=float)
            for config in range(n_configs):
                if _config_matches(config, parents, parent_sizes, restrictions):
                    row[config, child_code] = parent_marginal[config]
            rows.append(row.reshape(-1))
            targets.append(count / max(population_size, 1e-300))
    if not rows:
        return np.zeros((0, n_configs * child_size)), np.zeros(0)
    return np.vstack(rows), np.asarray(targets, dtype=float)


def family_counts_reference(aggregate, schema, child, parents) -> np.ndarray:
    """``(parent config, child)`` counts: a walk over the marginal's dict."""
    parent_sizes = [schema[name].size for name in parents]
    n_configs = int(np.prod(parent_sizes)) if parents else 1
    counts = np.zeros((n_configs, schema[child].size), dtype=float)
    for values, count in aggregate.marginalize([*parents, child]).items():
        *parent_values, child_value = values
        child_code = schema[child].domain.code_of(child_value)
        parent_codes = [
            schema[name].domain.code_of(value) for name, value in zip(parents, parent_values)
        ]
        if child_code is None or None in parent_codes:
            continue
        config = 0
        for code, size in zip(parent_codes, parent_sizes):
            config = config * size + code
        counts[config, child_code] += count
    return counts


def _normalize_rows_reference(table: np.ndarray) -> np.ndarray:
    table = np.array(table, dtype=float)
    totals = table.sum(axis=1, keepdims=True)
    for config in range(table.shape[0]):
        if totals[config, 0] <= 0:
            table[config] = np.full(table.shape[1], 1.0 / table.shape[1])
        else:
            table[config] = table[config] / totals[config, 0]
    return table


def learn_parameters_reference(
    graph, schema, sample: Relation, aggregates, smoothing: float = 0.1
) -> dict[str, np.ndarray]:
    """Every CPT table of the aggregate-constrained (``B``) parameter fit.

    Per node in topological order: the smoothed sample MLE; rows pinned by a
    full-family aggregate taken from it in closed form; the remaining
    single-factor aggregates met by iterative scaling, one constraint and
    one parent configuration per Python iteration.
    """
    from repro.bayesnet import BayesianNetwork, ConditionalProbabilityTable, ExactInference

    network = BayesianNetwork(schema, graph.copy())
    population_size = float(aggregates.population_size() or sample.n_rows)
    for node in network.topological_order():
        parents = network.parents(node)
        sizes = schema[node].size, [schema[name].size for name in parents]
        family = set(parents) | {node}
        counts = ConditionalProbabilityTable.counts_from_relation(
            sample, node, parents, weighted=False
        )
        theta = _normalize_rows_reference(counts + smoothing)
        constraints = [
            aggregate
            for aggregate in aggregates
            if node in aggregate.attributes and set(aggregate.attributes) <= family
        ]
        if constraints:
            marginal = (
                ExactInference(network).joint_marginal(parents).table.reshape(-1)
                if parents
                else np.ones(1)
            )
            full = next((agg for agg in constraints if set(agg.attributes) == family), None)
            if full is not None:
                joint = family_counts_reference(full, schema, node, parents) / max(
                    population_size, 1e-300
                )
                for config in range(theta.shape[0]):
                    mass = joint[config].sum()
                    if mass > 0:
                        theta[config] = joint[config] / mass
            remaining = [agg for agg in constraints if agg is not full]
            rows, targets = linear_constraints_reference(
                remaining, node, parents, schema, marginal, population_size
            )
            masks = rows.reshape(-1, *theta.shape) > 0
            for _ in range(50 if len(rows) else 0):
                max_gap = 0.0
                for mask, row, target in zip(masks, rows, targets):
                    achieved = float(row @ theta.reshape(-1))
                    if achieved <= 0:
                        if target > 0:
                            theta[mask] = np.maximum(theta[mask], 1e-6)
                        continue
                    scale = target / achieved
                    max_gap = max(max_gap, abs(scale - 1.0))
                    theta[mask] *= scale
                theta = _normalize_rows_reference(np.clip(theta, 0.0, None))
                if max_gap <= 1e-8:
                    break
            theta = _normalize_rows_reference(np.clip(theta, 0.0, None))
        network.set_cpt(ConditionalProbabilityTable(node, parents, *sizes, table=theta))
    return {node: network.cpt(node).table for node in network.topological_order()}


# ----------------------------------------------------------------------
# Group codes by a row-wise sort (reference for the packed keys)
# ----------------------------------------------------------------------
def group_codes_reference(relation: Relation, names) -> tuple[np.ndarray, np.ndarray]:
    """``Relation.group_codes`` as it was: one ``np.unique`` over the stacked
    code rows, ``axis=0``."""
    stacked = np.stack([relation.column(name) for name in names], axis=1)
    if stacked.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), stacked
    unique_rows, group_index = np.unique(stacked, axis=0, return_inverse=True)
    return group_index.astype(np.int64), unique_rows


# ----------------------------------------------------------------------
# Forward sampling, one choice() per configuration (reference for the sampler)
# ----------------------------------------------------------------------
def _safe_reference(distribution: np.ndarray) -> np.ndarray:
    distribution = np.clip(np.asarray(distribution, dtype=float), 0.0, None)
    total = distribution.sum()
    if total <= 0:
        return np.full(distribution.shape, 1.0 / distribution.shape[0])
    return distribution / total


def forward_sample_reference(network, rng: np.random.Generator, n_rows: int) -> dict:
    """Ancestral sampling as ``ForwardSampler.sample_codes`` used to do it:
    per node in topological order, the rows grouped by parent configuration
    (``np.unique``) and one ``rng.choice`` per configuration, in ascending
    order, over the clipped and renormalized CPT row."""
    columns: dict[str, np.ndarray] = {}
    for node in network.topological_order():
        cpt = network.cpt(node)
        if not cpt.parents:
            columns[node] = rng.choice(
                cpt.child_size, size=n_rows, p=_safe_reference(cpt.table[0])
            )
            continue
        config = np.zeros(n_rows, dtype=np.int64)
        for parent, size in zip(cpt.parents, cpt.parent_sizes):
            config = config * size + columns[parent]
        codes = np.empty(n_rows, dtype=np.int64)
        unique_configs, inverse = np.unique(config, return_inverse=True)
        for position, configuration in enumerate(unique_configs):
            mask = inverse == position
            codes[mask] = rng.choice(
                cpt.child_size,
                size=int(mask.sum()),
                p=_safe_reference(cpt.table[configuration]),
            )
        columns[node] = codes
    return columns
