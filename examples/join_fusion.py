"""Join sides: serve a mixed join/non-join batch and share sides across plans.

Self-join GROUP BY queries (the paper's Table 5 Q6 shape) are the most
expensive plans Themis serves: each one aggregates two *sides* into
``(join key, group)`` weight totals before merging them, and the hybrid
evaluator needs the same answer from every one of the BN's ``K`` generated
samples.  This example drives a serving batch that mixes join plans with
ordinary GROUP BY/COUNT traffic.  The batch runs plan by plan, and join
plans sharing a side compute its totals once: the first plan to need a side
stores it in the join-side cache, and every later plan — in this batch or a
later one — reads it from there.  Each side is computed for all ``K``
generated samples in one stacked scatter-add instead of once per sample,
and every answer is bit-identical to serving the query alone.

Run with:  python examples/join_fusion.py
"""

from __future__ import annotations

import time

from repro import Themis, ThemisConfig
from repro.aggregates import aggregates_from_population
from repro.data import CORNER_STATES, biased_sample, generate_flights_population
from repro.query.ast import Comparison, JoinGroupByQuery, Predicate


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

    themis = Themis(ThemisConfig(seed=0, n_generated_samples=3))
    themis.load_sample(sample, name="flights")
    themis.add_aggregates(aggregates)
    themis.fit()

    # "Which destination markets pair with which origin markets on the same
    # day?" — self-joins on fl_date, grouped two ways, plus the dashboard's
    # usual GROUP BY traffic.  The second join is the first with its filter
    # reordered: the same canonical plan, answered once.  The third pads the
    # filter with an implied bound (a plan of its own), and the fourth
    # mirrors the first, so both reuse sides the first one computed.
    filters = (
        Predicate("elapsed_time", Comparison.LE, 4),
        Predicate("distance", Comparison.GE, 2),
    )
    joins = [
        JoinGroupByQuery(
            "fl_date", "fl_date", "origin_state", "dest_state",
            left_predicates=filters,
        ),
        JoinGroupByQuery(
            "fl_date", "fl_date", "origin_state", "dest_state",
            left_predicates=filters[::-1],  # reordered: same side
        ),
        JoinGroupByQuery(
            "fl_date", "fl_date", "origin_state", "dest_state",
            left_predicates=filters + (Predicate("elapsed_time", Comparison.LE, 5),),
        ),
        JoinGroupByQuery(
            "fl_date", "fl_date", "dest_state", "origin_state",
            right_predicates=filters,
        ),
    ]
    workload = joins * 3 + [
        "SELECT origin_state, COUNT(*) FROM flights GROUP BY origin_state",
        "SELECT dest_state, COUNT(*) FROM flights GROUP BY dest_state",
        "SELECT COUNT(*) FROM flights WHERE origin_state = 'CA'",
    ]

    session = themis.serve()

    start = time.perf_counter()
    cold = session.execute_batch(workload)
    cold_seconds = time.perf_counter() - start
    print(
        f"cold batch: {len(cold)} queries in {cold_seconds * 1000:.1f} ms "
        f"({cold.queries_per_second:,.0f} q/s)"
    )
    print("executor counters:", cold.optimizer)

    # Same join family again: the sides come out of the join-side cache
    # (the result cache already answers the repeated plans themselves, so
    # probe with fresh pairings that reuse the cached sides).
    fresh_joins = [
        JoinGroupByQuery(
            "fl_date", "fl_date", "origin_state", "dest_state",
            left_predicates=filters,
            right_predicates=filters,
        ),
        JoinGroupByQuery(
            "fl_date", "fl_date", "origin_state", "dest_state",
            right_predicates=filters,
        ),
    ]
    warm = session.execute_batch(fresh_joins)
    print("fresh pairings over cached sides:", warm.optimizer)

    # Bit-identity: every batched answer equals serving the query alone.
    assert cold.results() == [themis.query(query) for query in workload]
    print("bit-identity vs the single-query loop: OK")

    print("\nsession executor statistics:")
    for key, value in session.statistics.as_dict()["optimizer"].items():
        print(f"  {key}: {value}")
    # Hybrid joins run over the sample stacked with the generated samples;
    # that stack's join-side cache holds their sides.
    print("join-side cache:", session.cache_statistics()["hybrid_join_side_cache"])


if __name__ == "__main__":
    main()
