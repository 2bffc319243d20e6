"""The logical-plan IR: compile once, route, execute with columnar kernels.

Every query — SQL text or AST — compiles into one ``LogicalPlan``: a
``Scan -> Filter -> [Group ->] Aggregate`` operator tree under a ``Route``
node, with predicates canonicalized into domain-code buckets and a hashable
plan key derived from the tree.  ``Themis.query(..., explain=True)`` returns
that compiled plan next to the answer, and the mask cache makes repeated
filters nearly free.

Run with:  python examples/plan_ir.py
"""

from __future__ import annotations

import time

from repro import Themis, ThemisConfig
from repro.aggregates import aggregates_from_population
from repro.data import CORNER_STATES, biased_sample, generate_flights_population


def main() -> None:
    population = generate_flights_population(n_rows=20_000, seed=7)
    sample = biased_sample(
        population,
        {"origin_state": list(CORNER_STATES)},
        fraction=0.1,
        bias=0.9,
        seed=1,
    )
    aggregates = aggregates_from_population(
        population,
        [("origin_state",), ("fl_date",), ("origin_state", "dest_state")],
    )

    themis = Themis(ThemisConfig(seed=0))
    themis.load_sample(sample, name="flights")
    themis.add_aggregates(aggregates)
    model = themis.fit()

    # -- explain=True: the answer plus the compiled plan that produced it --
    statement = (
        "SELECT origin_state, COUNT(*) FROM flights "
        "WHERE elapsed_time <= 120 AND dest_state IN ('NY', 'WA') "
        "GROUP BY origin_state"
    )
    explained = themis.query(statement, explain=True)
    print(f"SQL: {statement}")
    print(f"route: {explained.route}   plan key: {explained.plan.key[:2]}...")
    print(explained.explain())
    print(f"groups returned: {len(explained.result)}")
    print()

    # -- one canonicalization: reordered conjuncts share one plan key --
    reordered = themis.query(
        "SELECT origin_state, COUNT(*) FROM flights "
        "WHERE dest_state IN ('WA', 'NY') AND elapsed_time <= 120 "
        "GROUP BY origin_state",
        explain=True,
    )
    assert reordered.plan.key == explained.plan.key
    print("reordered WHERE clause -> identical canonical plan key")
    assert reordered.result == explained.result  # QueryResult equality: exact
    print("...and (of course) the identical answer, bit for bit")
    print()

    # -- the mask cache: repeated filters cost masks only once --
    executor = model.sample_evaluator.executor
    workload = [
        "SELECT AVG(elapsed_time) FROM flights "
        "WHERE dest_state IN ('NY', 'WA') AND elapsed_time <= 90",
        "SELECT fl_date, COUNT(*) FROM flights "
        "WHERE dest_state IN ('CA', 'FL') GROUP BY fl_date",
        "SELECT COUNT(*) FROM flights WHERE elapsed_time >= 180 AND fl_date <= '04'",
    ]
    misses_start = executor.mask_cache.misses
    start = time.perf_counter()
    for query in workload:
        themis.query(query)
    first_pass = time.perf_counter() - start
    misses_cold = executor.mask_cache.misses - misses_start

    start = time.perf_counter()
    for query in workload:
        themis.query(query)
    second_pass = time.perf_counter() - start
    misses_warm = executor.mask_cache.misses - misses_start - misses_cold

    print(
        f"first pass:  {first_pass * 1000:6.1f} ms "
        f"({misses_cold} predicate masks computed)"
    )
    print(
        f"second pass: {second_pass * 1000:6.1f} ms "
        f"({misses_warm} new masks — "
        "every filter served from the per-predicate mask cache)"
    )


if __name__ == "__main__":
    main()
