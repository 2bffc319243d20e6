"""Benchmark: the observability layer's overhead bounds.

Two acceptance bars over the PR-3 plan-IR workload (multi-predicate scalar
and GROUP BY queries on the columnar engine):

* **disabled** — with no tracer attached, the instrumentation the hot path
  pays is exactly the no-op hooks (``NULL_TRACER.span`` context cycles and
  ``tracer.enabled`` checks).  We count how many spans an enabled run of the
  workload creates, time that many null-hook cycles, and require the total
  to stay under **3%** of the untraced workload's wall-clock;
* **enabled** — an A/B of the same warm workload untraced vs. under a live
  :class:`~repro.obs.Tracer` must stay under **15%** slowdown.

Both sides use best-of-N timing (the enabled A/B alternates its rounds) so a
scheduler hiccup or a speed drift on a shared CI runner cannot fake a
regression.

Both are wall-clock A/Bs, so both carry the ``timing`` marker: the tier-1
command deselects it (``addopts`` in ``pyproject.toml``) and CI runs this
module in its own step with ``-m timing``.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import SMALL_SCALE
from repro.experiments.plan_ir_throughput import plan_ir_relation, plan_ir_workload
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sql.engine import WeightedQueryEngine

pytestmark = pytest.mark.timing


def _best_of(rounds: int, function) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _warm_workload():
    """A warmed columnar engine plus the plan-IR query mix it will serve."""
    relation = plan_ir_relation(SMALL_SCALE)
    queries = plan_ir_workload(relation, 24, seed=SMALL_SCALE.seed + 29)
    engine = WeightedQueryEngine(relation)
    for query in queries:  # warm masks/group tables: time steady-state serving
        engine.execute(query)
    return engine, queries


def test_disabled_tracer_overhead_under_3_percent():
    engine, queries = _warm_workload()

    def untraced():
        for query in queries:
            engine.execute(query)

    untraced_seconds = _best_of(5, untraced)

    # Count every span a fully traced run of this workload would create:
    # that is the number of no-op hook cycles the disabled path pays.
    tracer = Tracer()
    for query in queries:
        engine.execute(query, tracer=tracer)
    n_spans = sum(sum(1 for _ in root.walk()) for root in tracer.roots)
    assert n_spans >= len(queries)

    def null_hooks():
        span = NULL_TRACER.span
        for _ in range(n_spans):
            with span("x", attr=1):
                pass

    null_seconds = _best_of(5, null_hooks)
    overhead = null_seconds / untraced_seconds
    print(
        f"\ndisabled-tracer overhead: {n_spans} null hooks = "
        f"{1e6 * null_seconds:.1f}us over {1e3 * untraced_seconds:.2f}ms "
        f"({100 * overhead:.3f}%)"
    )
    assert overhead < 0.03


def test_enabled_tracer_overhead_under_15_percent():
    engine, queries = _warm_workload()

    def untraced():
        for query in queries:
            engine.execute(query)

    def traced():
        tracer = Tracer()
        for query in queries:
            engine.execute(query, tracer=tracer)

    # Alternate the two sides, best of many short rounds each: on a 2 ms
    # workload a back-to-back best-of-5 drifts by more than the bound (the
    # host's speed moves between the two measurements).
    untraced_seconds = traced_seconds = float("inf")
    for _ in range(15):
        untraced_seconds = min(untraced_seconds, _best_of(1, untraced))
        traced_seconds = min(traced_seconds, _best_of(1, traced))
    overhead = traced_seconds / untraced_seconds - 1.0
    print(
        f"\nenabled-tracer overhead: {1e3 * traced_seconds:.2f}ms vs "
        f"{1e3 * untraced_seconds:.2f}ms ({100 * overhead:.2f}%)"
    )
    assert overhead < 0.15
