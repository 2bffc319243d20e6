"""Quickstart: debias a tiny biased sample with Themis.

This walks through the full Themis workflow on the paper's motivating
scenario, shrunk to a few thousand rows so it runs in seconds:

1. generate a "population" of flights (normally unavailable!);
2. draw a sample biased towards four hub states;
3. register population aggregates (the kind of statistics a government
   transparency report would publish);
4. fit Themis and ask open-world SQL queries.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ColumnarExecutor, Themis, ThemisConfig, percent_difference
from repro.aggregates import aggregates_from_population
from repro.data import CORNER_STATES, biased_sample, generate_flights_population


def main() -> None:
    # --- 1. The (normally unavailable) population -------------------------
    population = generate_flights_population(n_rows=20_000, seed=7)
    population_truth = ColumnarExecutor(population)

    # --- 2. A biased sample: 90% of rows come from four hub states --------
    sample = biased_sample(
        population,
        {"origin_state": list(CORNER_STATES)},
        fraction=0.1,
        bias=0.9,
        seed=1,
    )
    print(f"population rows: {population.n_rows}, sample rows: {sample.n_rows}")

    # --- 3. Population aggregates (the apriori knowledge Γ) ----------------
    aggregates = aggregates_from_population(
        population,
        [
            ("origin_state",),
            ("fl_date",),
            ("origin_state", "dest_state"),
            ("distance", "elapsed_time"),
        ],
    )

    # --- 4. Fit Themis and ask queries -------------------------------------
    themis = Themis(ThemisConfig(seed=0))
    themis.load_sample(sample, name="flights")
    themis.add_aggregates(aggregates)
    model = themis.fit()
    print("fitted model:", model.summary()["bn_edges"])

    queries = [
        "SELECT COUNT(*) FROM flights WHERE origin_state = 'CA' AND dest_state = 'WA'",
        "SELECT COUNT(*) FROM flights WHERE origin_state = 'OH' AND dest_state = 'CA'",
        "SELECT COUNT(*) FROM flights WHERE origin_state = 'ME'",
        "SELECT origin_state, COUNT(*) FROM flights GROUP BY origin_state",
    ]
    for sql in queries:
        estimate = themis.sql(sql)
        truth = population_truth.execute(sql)
        print("\n" + sql)
        if hasattr(estimate, "as_dict"):
            shown = sorted(estimate.as_dict().items())[:5]
            print(f"  themis (first groups): {shown}")
            print(f"  truth  (first groups): {sorted(truth.as_dict().items())[:5]}")
        else:
            print(
                f"  themis = {estimate:,.0f}   truth = {truth:,.0f}   "
                f"percent difference = {percent_difference(truth, estimate):.1f}"
            )


if __name__ == "__main__":
    main()
