"""SQL surface — fused analytic (table-shaped) batches vs. per-plan, cold.

Not a paper artefact: this experiment measures the analytic query surface
(multi-aggregate SELECT lists, HAVING, window functions, ORDER BY/LIMIT)
on the workload it was built for — dashboard batches full of table-shaped
variants over shared ``Scan -> Filter -> Group`` prefixes.  Two phases over
one weighted relation, each from a completely cold engine:

* ``per-plan`` — the single-plan loop ``[engine.execute(q) for q in
  queries]``: every table plan pays its own mask lookup, group-code gather, stacked scatter-add pass, group
  decode, and window argsorts;
* ``optimized`` — ``engine.execute_batch(queries)``: the batch optimizer
  fuses every plan of a family into one stacked scatter-add pass (table
  plans contribute all their SELECT-list aggregates), shares normalized
  masks across families, dedups exact duplicates, and shares window sort
  permutations across plans with the same ``(HAVING, PARTITION BY, ORDER
  BY)`` descriptor.

Expected shape: the optimized cold batch serves a multiple of the per-plan
cold batch's throughput (printed, not asserted: wall-clock ratios are not a
tier-1 gate), with bit-identical ordered tables (asserted with exact ``==``,
never a tolerance, by :func:`~repro.experiments.harness
.per_plan_vs_optimized`) and counters proving the dedup, fusion, mask
sharing, and window-sort sharing all fired.
"""

from __future__ import annotations

from ..exceptions import ExperimentError
from ..query.ast import (
    AggregateFunction,
    AggregateSpec,
    AnalyticQuery,
    Comparison,
    HavingPredicate,
    OrderKey,
    Predicate,
    Query,
    WindowFunction,
    WindowSpec,
)
from ..schema import Relation
from .config import ExperimentScale, SMALL_SCALE
from .harness import per_plan_vs_optimized
from .plan_ir_throughput import plan_ir_relation
from .reporting import ExperimentResult


def sql_surface_workload(
    relation: Relation, n_families: int = 4, duplication: int = 4
) -> list[Query]:
    """A table-shaped dashboard batch (the analytic surface's target shape).

    Each *family* shares one two-conjunct filter and one two-column group
    prefix and contributes six analytic queries: a multi-aggregate top-k, a
    HAVING variant, two ranked variants sharing a window descriptor (the
    window-sort-sharing candidates), a running-sum window, and one exact
    duplicate.  The whole batch repeats ``duplication`` times — the
    dashboard-refresh shape.
    """
    names = list(relation.attribute_names)
    if len(names) < 5:
        raise ExperimentError("sql surface workload needs at least 5 attributes")
    schema = relation.schema
    group_by_pool = ((names[0], names[1]), (names[2], names[3]))
    queries: list[Query] = []
    count = AggregateSpec(AggregateFunction.COUNT, alias="n")
    for family in range(n_families):
        group_by = group_by_pool[family % len(group_by_pool)]
        remaining = [name for name in names if name not in group_by]
        filter_a = remaining[family % len(remaining)]
        filter_b = remaining[(family + 1) % len(remaining)]
        measure = remaining[(family + 2) % len(remaining)]
        in_size = min(6, len(schema[filter_a].domain))
        bound = max(1, len(schema[filter_b].domain) // 2)
        predicates = (
            Predicate(filter_a, Comparison.IN, tuple(range(in_size))),
            Predicate(filter_b, Comparison.LE, bound),
        )
        total = AggregateSpec(AggregateFunction.SUM, measure, alias="total")
        mean = AggregateSpec(AggregateFunction.AVG, measure, alias="mean")
        rank = WindowSpec(
            WindowFunction.RANK,
            alias="r",
            order_by=(OrderKey("n", descending=True),),
        )
        top_k = AnalyticQuery(
            group_by=group_by,
            aggregates=(count, total, mean),
            predicates=predicates,
            order_by=(OrderKey("n", descending=True), OrderKey(group_by[0])),
            limit=10,
        )
        family_queries: list[Query] = [
            top_k,
            AnalyticQuery(
                group_by=group_by,
                aggregates=(count,),
                predicates=predicates,
                having=(HavingPredicate("n", Comparison.GT, float(bound)),),
                order_by=(OrderKey(group_by[0]),),
            ),
            AnalyticQuery(
                group_by=group_by,
                aggregates=(count,),
                predicates=predicates,
                windows=(rank,),
                order_by=(OrderKey("r"), OrderKey(group_by[0])),
            ),
            # Same window descriptor over the same fused family: the second
            # plan's RANK reuses the first's argsort (window-sort sharing).
            AnalyticQuery(
                group_by=group_by,
                aggregates=(count, total),
                predicates=predicates,
                windows=(rank,),
                order_by=(OrderKey("r"), OrderKey(group_by[0])),
                limit=20,
            ),
            AnalyticQuery(
                group_by=group_by,
                aggregates=(count,),
                predicates=predicates,
                windows=(
                    WindowSpec(
                        WindowFunction.SUM,
                        alias="running",
                        target="n",
                        order_by=(OrderKey(group_by[0]),),
                    ),
                ),
            ),
            top_k,  # exact duplicate: dedups to one slot
        ]
        queries.extend(family_queries)
    return queries * max(1, duplication)


def run_sql_surface(
    scale: ExperimentScale = SMALL_SCALE, n_families: int | None = None
) -> ExperimentResult:
    """Measure per-plan vs. optimized cold table-batch throughput."""
    relation = plan_ir_relation(scale)
    queries = sql_surface_workload(relation, n_families or 4)

    result = ExperimentResult(
        experiment_id="sql-surface",
        title="SQL surface: fused analytic table batches vs per-plan, cold",
        paper_claim=(
            "Beyond the paper: analytic queries (multi-aggregate SELECTs, "
            "HAVING, window functions, ORDER BY/LIMIT) lower onto the same "
            "fused scatter-add families as legacy group-bys, so a cold "
            "dashboard batch of table-shaped variants serves several times "
            "faster through the batch optimizer than per-plan — with "
            "bit-identical ordered tables and counters proving fusion, "
            "dedup, mask sharing, and window-sort sharing all fired."
        ),
        parameters={
            "n_rows": relation.n_rows,
            "n_queries": len(queries),
            "n_families": n_families or 4,
        },
    )

    # "Identical" includes row order for tables.
    phases = per_plan_vs_optimized(relation, queries)
    for phase in phases:
        result.add_row(
            phase=phase.phase,
            seconds=phase.seconds,
            queries_per_second=len(queries) / phase.seconds,
            speedup=phase.speedup_over(phases[0]),
            plans_deduped=phase.stats.plans_deduped,
            groupby_fusions=phase.stats.groupby_fusions,
            masks_shared=phase.stats.masks_shared,
            window_sorts_shared=phase.stats.window_sorts_shared,
        )
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run_sql_surface().render())


if __name__ == "__main__":  # pragma: no cover
    main()
