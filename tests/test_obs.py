"""Tests for the observability layer (``repro.obs``).

Covers four guarantees:

* the metric-name and histogram-bucket surface is frozen (renames fail here);
* spans, tracers, and the metrics registry behave as documented, and the
  null tracer is a true no-op;
* a traced batch runs one ``mask`` span per plan and no schedule, and the
  trace's counters agree with the registry;
* serving counters can no longer drift: ``ServingStatistics`` and the
  cache gauges are readings of one registry, and agree after mixed
  single/batch traffic with a mid-session refit.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry, Tracer, names
from repro.obs.trace import NULL_TRACER
from repro.plan import optimize_batch
from repro.query import Comparison, JoinGroupByQuery, Predicate


# ---------------------------------------------------------------------------
# Satellite 6: the names/buckets surface is frozen
# ---------------------------------------------------------------------------
class TestFrozenSurface:
    def test_latency_buckets_are_frozen(self):
        assert isinstance(names.LATENCY_BUCKETS, tuple)
        assert len(names.LATENCY_BUCKETS) == 31
        assert names.LATENCY_BUCKETS[0] == 1e-6
        assert names.LATENCY_BUCKETS[1] == 2e-6
        assert names.LATENCY_BUCKETS[-1] == 1e-6 * 2**30
        # strictly increasing
        assert all(
            a < b for a, b in zip(names.LATENCY_BUCKETS, names.LATENCY_BUCKETS[1:])
        )

    def test_counter_names_are_frozen(self):
        # Renaming any of these is a breaking change to dashboards and CI
        # assertions; update this test only as a deliberate rename.
        assert names.QUERIES_SERVED == "serving.queries_served"
        assert names.BATCHES_SERVED == "serving.batches_served"
        assert names.TOTAL_SECONDS == "serving.total_seconds"
        assert names.INVALIDATIONS == "serving.invalidations"
        assert names.ROUTE_PREFIX == "serving.route."
        assert names.BN_ELIMINATION_PASSES == "bn.elimination_passes"
        assert names.BN_FACTOR_CACHE_HITS == "bn.factor_cache_hits"
        assert names.BN_FACTOR_CACHE_MISSES == "bn.factor_cache_misses"
        assert names.CACHE_PREFIX == "cache."
        assert names.QUERY_SECONDS == "latency.query_seconds"
        assert names.BATCH_SECONDS == "latency.batch_seconds"
        assert names.STAGE_PREFIX == "latency.stage."

    def test_stage_and_tier_names_are_frozen(self):
        assert names.BATCH_STAGES == ("compile", "cache-probe", "execute")
        assert names.CACHE_TIERS == (
            "result",
            "plan",
            "inference",
            "mask",
            "join_side",
            "bn_mask",
            "bn_join_side",
            "hybrid_join_side",
        )

    def test_name_helpers(self):
        assert names.route_counter("sample") == "serving.route.sample"
        assert names.cache_gauge("result", "hits") == "cache.result.hits"
        assert names.stage_histogram("compile") == "latency.stage.compile"

    def test_governance_names_are_frozen(self):
        # The resource-governance surface: dashboards, the governance chaos
        # experiment, and the smoke benchmark all key on these strings.
        assert names.GOVERNANCE_PREFIX == "governance."
        assert names.GOVERNANCE_CACHE_BYTES == "governance.cache_bytes"
        assert (
            names.GOVERNANCE_CACHE_BYTES_HIGH_WATER
            == "governance.cache_bytes_high_water"
        )
        assert names.GOVERNANCE_BUDGET_BYTES == "governance.budget_bytes"
        assert names.GOVERNANCE_PRESSURE_LEVEL == "governance.pressure_level"
        assert names.GOVERNANCE_EVICTIONS == "governance.evictions"
        assert names.GOVERNANCE_EVICTED_BYTES == "governance.evicted_bytes"
        assert names.GOVERNANCE_FLUSHES == "governance.flushes"
        assert (
            names.GOVERNANCE_CACHE_ADMISSION_REJECTIONS
            == "governance.cache_admission_rejections"
        )
        assert names.GOVERNANCE_REQUESTS_ADMITTED == "governance.requests_admitted"
        assert names.GOVERNANCE_REQUESTS_REJECTED == "governance.requests_rejected"
        assert names.GOVERNANCE_REJECTED_PREFIX == "governance.rejected."
        assert names.GOVERNANCE_CANCELLED == "governance.cancelled"
        assert names.GOVERNANCE_DEADLINE_EXCEEDED == "governance.deadline_exceeded"
        assert names.GOVERNANCE_BREAKER_OPENED == "governance.breaker.opened"
        assert names.GOVERNANCE_BREAKER_REJECTIONS == "governance.breaker.rejections"
        assert (
            names.GOVERNANCE_BREAKER_PROBES == "governance.breaker.half_open_probes"
        )
        assert names.GOVERNANCE_CACHE_GAUGE_PREFIX == "governance.cache."
        assert (
            names.governed_cache_gauge("result") == "governance.cache.result.bytes"
        )
        assert names.rejected_counter("background") == "governance.rejected.background"


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(7)
        assert registry.value("a") == 3
        assert registry.value("g") == 7
        assert registry.value("missing") == 0
        assert registry.value("missing", default=None) is None

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("a").inc(-1)

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.counter("serving.route.sample").inc(4)
        registry.counter("serving.route.hybrid").inc()
        registry.counter("other").inc()
        assert registry.counters_with_prefix("serving.route.") == {
            "sample": 4,
            "hybrid": 1,
        }

    def test_histogram_percentiles_use_bucket_upper_bounds(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (1.5e-6, 1.5e-6, 3e-6, 100e-6):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(106e-6)
        # 1.5us lands in the (1us, 2us] bucket -> upper bound 2us.
        assert histogram.percentile(0.5) == pytest.approx(2e-6)
        assert histogram.percentile(0.99) == pytest.approx(128e-6)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["max"] == pytest.approx(100e-6)

    def test_histogram_overflow_reports_max(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.record(10_000.0)  # beyond the last bucket bound
        assert histogram.percentile(0.5) == pytest.approx(10_000.0)

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.histogram("h").record(1e-3)
        snapshot = registry.as_dict()
        assert snapshot["counters"]["a"] == 5
        assert snapshot["histograms"]["h"]["count"] == 1
        registry.reset()
        assert registry.value("a") == 0
        assert registry.histogram("h").count == 0


# ---------------------------------------------------------------------------
# Spans and tracers
# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_tree_shape_and_walk_order(self):
        tracer = Tracer()
        with tracer.span("root", kind="test") as root:
            with tracer.span("left"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("right") as right:
                right.count(widgets=3)
        assert [span.name for span in root.walk()] == ["root", "left", "leaf", "right"]
        assert root.attributes == {"kind": "test"}
        assert root.find("right").counters == {"widgets": 3}
        assert root.counter_total("widgets") == 3
        assert root.seconds >= sum(child.seconds for child in root.children)

    def test_structural_children_have_zero_duration(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            child = parent.child("slot", slot=0)
        assert child.seconds == 0.0
        assert child in parent.children

    def test_render_mentions_names_and_counters(self):
        tracer = Tracer()
        with tracer.span("query", route="sample") as root:
            with tracer.span("mask") as mask:
                mask.count(mask_hits=2)
        text = root.render()
        assert "query" in text and "route=sample" in text
        assert "mask_hits=2" in text

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        count = tracer.export_jsonl(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert count == len(records) == 2
        by_name = {record["name"]: record for record in records}
        assert by_name["b"]["parent"] == by_name["a"]["id"]

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", attr=1) as span:
            span.set(x=1).count(y=2)
            child = span.child("slot")
        assert span is child  # one stateless singleton throughout
        assert NULL_TRACER.roots == []
        assert list(span.walk()) == []


# ---------------------------------------------------------------------------
# Acceptance: explain="analyze" and traced serving
# ---------------------------------------------------------------------------
class TestExplainAnalyze:
    def test_stage_times_sum_to_end_to_end(self, serving_themis):
        explained = serving_themis.query(
            "SELECT COUNT(*) FROM sample WHERE A = 0", explain="analyze"
        )
        root = explained.trace
        assert root is not None and root.name == "query"
        assert {child.name for child in root.children} == {"compile", "execute"}
        stage_sum = sum(child.seconds for child in root.children)
        # The stages are timed back-to-back inside the root, so they can
        # never exceed it and must account for nearly all of it.
        assert stage_sum <= root.seconds
        assert stage_sum >= 0.5 * root.seconds
        # And the answer matches the untraced path exactly.
        assert explained.result == serving_themis.query(
            "SELECT COUNT(*) FROM sample WHERE A = 0"
        )

    def test_explain_analyze_renders_plan_and_trace(self, serving_themis):
        explained = serving_themis.query(
            "SELECT A, COUNT(*) FROM sample GROUP BY A", explain="analyze"
        )
        text = explained.explain_analyze()
        assert "Aggregate" in text  # the operator tree
        assert "query" in text and "compile" in text  # the span tree

    def test_plain_explain_has_no_trace(self, serving_themis):
        from repro.exceptions import ThemisError

        explained = serving_themis.query(
            "SELECT COUNT(*) FROM sample WHERE A = 0", explain=True
        )
        assert explained.trace is None
        with pytest.raises(ThemisError):
            explained.explain_analyze()


WORKLOAD = [
    "SELECT COUNT(*) FROM sample WHERE A = 0",
    "SELECT COUNT(*) FROM sample WHERE A = 0 AND B = 1",
    "SELECT COUNT(*) FROM sample WHERE B = 1 AND A = 0",  # deduped reorder
    "SELECT A, COUNT(*) FROM sample GROUP BY A",
    "SELECT B, COUNT(*) FROM sample WHERE C = 1 GROUP BY B",
    "SELECT AVG(B) FROM sample WHERE A = 0",
    "SELECT COUNT(*) FROM sample WHERE A = 2 AND B = 2 AND C = 0",
]

JOINS = [
    JoinGroupByQuery("A", "A", "B", "C"),
    JoinGroupByQuery("A", "A", "B", "C", left_predicates=(Predicate("B", Comparison.EQ, 1),)),
]


class TestTracedServing:
    def test_untraced_session_attaches_no_trees(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        outcome = session.execute_with_outcome(WORKLOAD[0])
        batch = session.execute_batch(WORKLOAD)
        assert outcome.trace is None
        assert batch.trace is None

    def test_batch_trace_has_stage_spans(self, fresh_serving_themis):
        session = fresh_serving_themis.serve(trace=True)
        batch = session.execute_batch(WORKLOAD)
        root = batch.trace
        assert root.name == "batch"
        child_names = [child.name for child in root.children]
        assert child_names == list(names.BATCH_STAGES)

    def test_trace_counters_match_serving_statistics(self, fresh_serving_themis):
        """Acceptance: the span trees' cache counters equal the statistics."""
        session = fresh_serving_themis.serve(trace=True)
        cold = session.execute_batch(WORKLOAD)
        warm = session.execute_batch(WORKLOAD)
        hits = sum(b.trace.counter_total("result_cache_hits") for b in (cold, warm))
        misses = sum(b.trace.counter_total("result_cache_misses") for b in (cold, warm))
        cache_stats = session.cache_statistics()
        assert hits == cache_stats["result_cache"]["hits"]
        assert misses == cache_stats["result_cache"]["misses"]
        # Deduped plans never probe (they share the first outcome), so the
        # warm replay probes once per distinct plan, all hits.
        deduped = sum(1 for outcome in warm if outcome.deduplicated)
        assert warm.trace.counter_total("result_cache_hits") == len(WORKLOAD) - deduped
        assert cold.cache_hits == 0 and warm.cache_hits == len(WORKLOAD)

    def test_batch_runs_one_mask_span_per_plan_and_no_schedule(self, fresh_serving_themis):
        executor = fresh_serving_themis.model.sample_evaluator.executor
        tracer = Tracer()
        answers = executor.execute_batch(WORKLOAD, tracer=tracer)
        assert answers == [executor.execute(sql) for sql in WORKLOAD]
        spans = [span.name for root in tracer.roots for span in root.walk()]
        assert spans == ["mask"] * len(WORKLOAD)
        # A schedule of the same plans would dedup the reordered
        # conjunction onto one slot; no served batch builds one.
        schedule = optimize_batch([executor.compiler.compile(sql) for sql in WORKLOAD])
        assert len(schedule.assignments) == len(WORKLOAD)
        assert len(schedule.slots) < len(WORKLOAD)

    def test_optimize_span_counters_match_the_schedule(self, fresh_serving_themis):
        session = fresh_serving_themis.serve(trace=True)
        batch = session.execute_batch(WORKLOAD)
        assert batch.results() == [fresh_serving_themis.query(sql) for sql in WORKLOAD]
        assert not batch.trace.spans("optimize")
        # optimize_batch's span snapshots its schedule's counters.
        tracer = Tracer()
        schedule = optimize_batch([outcome.plan for outcome in batch], tracer=tracer)
        (span,) = [span for root in tracer.roots for span in root.walk()]
        assert span.name == "optimize"
        assert span.counters == schedule.stats.as_dict()
        assert span.counters["plans_deduped"] >= 1

    def test_batch_stage_histograms_are_fed(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        session.execute_batch(WORKLOAD)
        session.execute_batch(WORKLOAD)
        for stage in names.BATCH_STAGES:
            histogram = session.metrics.histogram(names.stage_histogram(stage))
            assert histogram.count == 2, stage


# ---------------------------------------------------------------------------
# Satellite 1: counter drift is impossible by construction
# ---------------------------------------------------------------------------
class TestCounterDrift:
    def test_statistics_agree_after_mixed_traffic_and_refit(self, fresh_serving_themis):
        themis = fresh_serving_themis
        session = themis.serve(trace=True)

        batches = []
        batches.append(session.execute_batch(WORKLOAD))
        session.execute_with_outcome(WORKLOAD[0])
        session.execute_with_outcome(WORKLOAD[3])
        batches.append(session.execute_batch(WORKLOAD[:4]))

        # Mid-session refit: generation moves, caches invalidate, and the
        # session keeps counting into the same registry.
        themis.refit()
        batches.append(session.execute_batch(WORKLOAD))
        session.execute_with_outcome(WORKLOAD[1])
        # Two joins over one side: the second reads it from the join-side
        # cache the first filled.
        batches.append(session.execute_batch(JOINS))

        stats = session.statistics
        assert stats.invalidations == 1
        assert stats.batches_served == len(batches)
        assert stats.queries_served == sum(len(b) for b in batches) + 3

        # The join-side hit the second join made is the refitted stack's
        # cache's own, and its gauge mirrors it into the same registry.
        hits = session.cache_statistics()["hybrid_join_side_cache"]["hits"]
        assert hits > 0
        assert session.metrics.value(names.cache_gauge("hybrid_join_side", "hits")) == hits

        # And as_dict round-trips the same numbers.
        as_dict = stats.as_dict()
        assert as_dict["queries_served"] == stats.queries_served
        assert as_dict["batches_served"] == stats.batches_served

    def test_single_and_batch_route_counters_share_registry(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        session.execute(WORKLOAD[0])
        session.execute_batch(WORKLOAD)
        total_by_route = sum(session.statistics.route_counts.values())
        assert total_by_route == session.statistics.queries_served


# ---------------------------------------------------------------------------
# Satellite 2: per-window cache statistics
# ---------------------------------------------------------------------------
class TestCacheWindows:
    def test_window_hit_rates_reset_without_touching_lifetime(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        session.execute_batch(WORKLOAD)
        lifetime_before = session.cache_statistics()

        session.reset_cache_window()
        session.execute_batch(WORKLOAD)  # warm replay: all result-cache hits

        window = session.cache_statistics(window=True)
        lifetime = session.cache_statistics()

        assert window["result_cache"]["hits"] == len(WORKLOAD) - 1  # one dedup
        assert window["result_cache"]["misses"] == 0
        assert window["result_cache"]["hit_rate"] == 1.0
        # Lifetime counters keep accumulating, untouched by the window.
        assert (
            lifetime["result_cache"]["hits"]
            == lifetime_before["result_cache"]["hits"] + window["result_cache"]["hits"]
        )
        # Sizes are reported as current values, not deltas.
        assert window["result_cache"]["entries"] == lifetime["result_cache"]["entries"]

    def test_window_before_reset_is_lifetime(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        session.execute_batch(WORKLOAD)
        assert (
            session.cache_statistics(window=True)["result_cache"]["hits"]
            == session.cache_statistics()["result_cache"]["hits"]
        )

    def test_mask_cache_tier_is_reported(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        session.execute_batch(WORKLOAD)
        stats = session.cache_statistics()
        assert "mask_cache" in stats
        assert stats["mask_cache"]["hits"] + stats["mask_cache"]["misses"] > 0

    def test_cache_gauges_synced_into_registry(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        session.execute_batch(WORKLOAD)
        stats = session.cache_statistics()
        assert (
            session.metrics.value(names.cache_gauge("result", "hits"))
            == stats["result_cache"]["hits"]
        )
        assert (
            session.metrics.value(names.cache_gauge("mask", "misses"))
            == stats["mask_cache"]["misses"]
        )

    def test_reset_statistics_on_kernel_caches(self, fresh_serving_themis):
        executor = fresh_serving_themis.model.sample_evaluator.executor
        executor.execute(WORKLOAD[0])
        assert executor.mask_cache.hits + executor.mask_cache.misses > 0
        cached = executor.mask_cache.statistics()["cached_masks"]
        assert cached > 0
        executor.mask_cache.reset_statistics()
        assert executor.mask_cache.hits == 0 and executor.mask_cache.misses == 0
        # Entries survive: only the counters reset.
        assert executor.mask_cache.statistics()["cached_masks"] == cached
