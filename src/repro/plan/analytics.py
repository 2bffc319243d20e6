"""Post-aggregate table pipeline: HAVING, windows, ORDER BY, LIMIT.

Analytic (table-shaped) plans aggregate like any grouped plan — one
scatter-add pass per ``(Scan, Filter, Group)`` family — and then run a small
pipeline over the resulting *group rows*: HAVING filters them, window
functions annotate them, ORDER BY permutes them, LIMIT truncates them.

Every stage is deterministic and exact:

* group rows enter in ascending encoded-group order (packed-key group codes
  (ascending code order), the same order
  :func:`~repro.plan.kernels.fused_group_reduce` emits);
* sorts are **stable** ``np.lexsort`` passes over numeric keys — group
  columns sort by their position in the attribute's ordered active domain
  (consistent with ordered predicates), aggregate and window columns by
  value, descending via negation — so ties preserve canonical group order;
* ``RANK`` uses SQL semantics (peers share a rank, gaps follow); a running
  ``SUM`` accumulates sequentially in sorted order (``ROWS UNBOUNDED
  PRECEDING``), or assigns partition totals when the window has no ORDER
  BY.  Both are computed over the *reweighted* aggregate columns, so ranks
  and running sums are weighted-rank answers over the debiased sample, not
  raw sample counts.

Window permutations are memoized per ``(HAVING signature, partition/order
descriptor)``: the batch executor passes one memo per fused family, so
plans that differ only above the Group share one argsort.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..exceptions import QueryError
from ..query.ast import Comparison
from ..sql.engine import TableResult
from .ir import Having, Limit, LogicalPlan, Sort, Window, WindowOp


def _compare(values: np.ndarray, comparison: Comparison, threshold: float) -> np.ndarray:
    """Elementwise comparison used by HAVING (exact, no arithmetic)."""
    if comparison is Comparison.EQ:
        return values == threshold
    if comparison is Comparison.NE:
        return values != threshold
    if comparison is Comparison.LT:
        return values < threshold
    if comparison is Comparison.LE:
        return values <= threshold
    if comparison is Comparison.GT:
        return values > threshold
    if comparison is Comparison.GE:
        return values >= threshold
    raise QueryError(f"unsupported HAVING comparison {comparison}")


def execute_table_pipeline(
    plan: LogicalPlan,
    codes: np.ndarray,
    decoded: list[tuple[Any, ...]],
    agg_columns: list[np.ndarray],
    stats=None,
) -> TableResult:
    """Run a table plan's post-aggregate pipeline over its group rows.

    Parameters
    ----------
    plan:
        The compiled table-shaped plan (column indexes pre-resolved).
    codes:
        ``(n_rows, n_group)`` int array of *order codes* per group row —
        the group values' domain positions.  Rows must arrive in ascending
        code order.
    decoded:
        The decoded group value tuples, aligned with ``codes``.
    agg_columns:
        One float array per aggregate spec, aligned with ``codes``.
    stats:
        Optional :class:`~repro.plan.optimize.OptimizerStats`; a window
        ordered like an earlier window of the plan reuses its permutation
        and bumps ``stats.window_sorts_shared``.
    """
    query = plan.query
    n_group = len(query.group_by)
    n_aggregate = len(agg_columns)
    n_rows = len(decoded)
    codes = np.asarray(codes, dtype=np.int64).reshape(n_rows, n_group)

    selection = np.arange(n_rows, dtype=np.int64)
    # Window columns, keyed by global output-column index; each list is
    # aligned with the *positions* of ``selection`` (reindexed on sort/limit).
    window_columns: dict[int, list] = {}
    # Stable window permutations by (PARTITION BY, ORDER BY): every window
    # of the plan sees the same rows, so equal keys mean equal permutations.
    sort_memo: dict = {}

    def key_array(column: int) -> np.ndarray:
        """Numeric sort-key values of one output column over ``selection``."""
        if column < n_group:
            return codes[selection, column].astype(np.float64)
        index = column - n_group
        if index < n_aggregate:
            return np.asarray(agg_columns[index][selection], dtype=np.float64)
        return np.asarray(window_columns[column], dtype=np.float64)

    def stable_permutation(
        partition: tuple[int, ...], order: tuple[tuple[int, bool], ...]
    ) -> np.ndarray:
        """Stable lexsort: partition columns major, then order keys."""
        keys: list[np.ndarray] = []
        for column, descending in reversed(order):
            values = key_array(column)
            keys.append(-values if descending else values)
        for column in reversed(partition):
            keys.append(codes[selection, column])
        if not keys:
            return np.arange(selection.shape[0], dtype=np.int64)
        return np.lexsort(keys)

    def apply_permutation(permutation: np.ndarray) -> None:
        nonlocal selection
        selection = selection[permutation]
        for column, values in window_columns.items():
            window_columns[column] = [values[p] for p in permutation]

    def run_window(op: WindowOp, output_column: int) -> None:
        memo_key = (op.partition, op.order)
        permutation = sort_memo.get(memo_key)
        if permutation is None:
            permutation = stable_permutation(op.partition, op.order)
            sort_memo[memo_key] = permutation
        elif stats is not None:
            stats.window_sorts_shared += 1
        partition_columns = [codes[selection, p] for p in op.partition]
        order_columns = [key_array(column) for column, _ in op.order]
        values: list = [None] * selection.shape[0]
        sentinel = object()
        previous_partition: Any = sentinel
        if op.function == "rank":
            partition_start = 0
            rank = 1
            previous_key: Any = sentinel
            for position, row in enumerate(permutation):
                part = tuple(int(col[row]) for col in partition_columns)
                order_key = tuple(float(col[row]) for col in order_columns)
                if part != previous_partition:
                    previous_partition = part
                    partition_start = position
                    rank = 1
                    previous_key = order_key
                elif order_key != previous_key:
                    rank = position - partition_start + 1
                    previous_key = order_key
                values[row] = rank
        else:  # running / partition-total SUM
            source = agg_columns[op.source - n_group]
            if op.order:
                accumulator = 0.0
                for row in permutation:
                    part = tuple(int(col[row]) for col in partition_columns)
                    if part != previous_partition:
                        previous_partition = part
                        accumulator = 0.0
                    accumulator = accumulator + float(source[selection[row]])
                    values[row] = accumulator
            else:
                # No ORDER BY: every row receives its partition's total,
                # accumulated sequentially in canonical group order.
                totals: dict[tuple, float] = {}
                for row in permutation:
                    part = tuple(int(col[row]) for col in partition_columns)
                    totals[part] = totals.get(part, 0.0) + float(
                        source[selection[row]]
                    )
                for row in permutation:
                    part = tuple(int(col[row]) for col in partition_columns)
                    values[row] = totals[part]
        window_columns[output_column] = values

    for node in plan.pipeline:
        if isinstance(node, Having):
            keep = np.ones(selection.shape[0], dtype=bool)
            for condition in node.conditions:
                values = agg_columns[condition.column - n_group][selection]
                keep &= _compare(values, condition.comparison, condition.value)
            selection = selection[keep]
        elif isinstance(node, Window):
            for offset, op in enumerate(node.ops):
                run_window(op, n_group + n_aggregate + offset)
        elif isinstance(node, Sort):
            apply_permutation(stable_permutation((), node.keys))
        elif isinstance(node, Limit):
            count = node.count
            selection = selection[:count]
            for column, values in window_columns.items():
                window_columns[column] = values[:count]

    ordered_windows = [window_columns[c] for c in sorted(window_columns)]
    rows = []
    for position, base in enumerate(selection):
        row = list(decoded[base])
        row.extend(float(column[base]) for column in agg_columns)
        row.extend(column[position] for column in ordered_windows)
        rows.append(tuple(row))
    assert plan.labels is not None
    return TableResult(plan.labels, rows, group_by=tuple(query.group_by))

