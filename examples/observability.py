"""Observability: EXPLAIN ANALYZE, traced serving, and the metrics registry.

Every layer of the serving stack accepts an optional tracer.  This script
shows the three entry points: ``themis.query(..., explain="analyze")`` for
one query, ``themis.serve(trace=True)`` for session traffic (each outcome
and batch carries its span tree), and the session's ``MetricsRegistry`` /
per-window cache statistics for dashboard-style monitoring.

Run with:  python examples/observability.py
"""

from __future__ import annotations

import io

from repro import Themis, ThemisConfig, Tracer
from repro.aggregates import aggregates_from_population
from repro.data import CORNER_STATES, biased_sample, generate_flights_population
from repro.obs import names


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

    # -- EXPLAIN ANALYZE: the operator tree plus the timed span tree --
    statement = (
        "SELECT origin_state, COUNT(*) FROM flights "
        "WHERE elapsed_time <= 120 AND dest_state IN ('NY', 'WA') "
        "GROUP BY origin_state"
    )
    explained = themis.query(statement, explain="analyze")
    print(f"SQL: {statement}")
    print(explained.explain_analyze())
    assert explained.result == themis.query(statement)  # tracing is read-only
    print()

    # -- traced serving: every batch carries its span tree --
    session = themis.serve(trace=True)
    workload = [
        "SELECT COUNT(*) FROM flights WHERE origin_state = 'CA'",
        "SELECT AVG(elapsed_time) FROM flights WHERE dest_state IN ('NY', 'WA')",
        "SELECT origin_state, COUNT(*) FROM flights "
        "WHERE elapsed_time <= 120 GROUP BY origin_state",
        "SELECT COUNT(*) FROM flights WHERE dest_state IN ('WA', 'NY')",
    ]
    cold = session.execute_batch(workload)
    print("cold batch span tree:")
    print(cold.trace.render())
    print()

    # -- per-window cache statistics: lifetime vs. recent hit rates --
    session.reset_cache_window()
    warm = session.execute_batch(workload)
    lifetime = session.cache_statistics()["result_cache"]
    window = session.cache_statistics(window=True)["result_cache"]
    print(
        f"result cache  lifetime: {lifetime['hits']} hits / "
        f"{lifetime['misses']} misses (rate {lifetime['hit_rate']:.2f})"
    )
    print(
        f"result cache  warm window: {window['hits']} hits / "
        f"{window['misses']} misses (rate {window['hit_rate']:.2f})"
    )
    assert warm.cache_hits == len(workload)
    print()

    # -- the registry: one accumulation point for every serving counter --
    metrics = session.metrics
    print(
        f"queries served:  {metrics.value(names.QUERIES_SERVED):.0f} "
        f"(registry) == {session.statistics.queries_served} (statistics view)"
    )
    execute = metrics.histogram(names.stage_histogram(names.STAGE_EXECUTE)).summary()
    print(
        f"execute stage:   {execute['count']} batches, "
        f"p50 <= {execute['p50'] * 1e3:.3f} ms"
    )

    # -- JSONL export: flat, parent-linked spans for external tooling --
    tracer = Tracer()
    model.sample_evaluator.engine.execute_batch(workload, tracer=tracer)
    buffer = io.StringIO()
    n_rows = tracer.export_jsonl(buffer)
    print(f"exported {n_rows} spans as JSONL "
          f"({len(buffer.getvalue().splitlines())} lines)")


if __name__ == "__main__":
    main()
