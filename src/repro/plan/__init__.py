"""Unified logical-plan IR: one compiled representation for every query path.

``repro.plan`` sits between the query AST layer and the engines: the
compiler canonicalizes an AST (or SQL text) into a :class:`LogicalPlan` —
a ``Scan -> Filter -> [Group ->] Aggregate`` operator tree under a ``Route``
node — exactly once, and every executor consumes that plan:

* the columnar :class:`ColumnarExecutor` (behind ``WeightedQueryEngine``)
  runs sample-side plans with cached predicate masks and scatter-add
  group-bys;
* the serving :class:`~repro.serving.planner.QueryPlanner` derives its
  result-cache keys and evaluator routes from the compiled plan;
* a batch runs plan by plan, each plan a unit of its own that reads the
  executor's mask and join-side caches, whose statistics say what the
  plans shared.

The batch-aware optimizer (:mod:`repro.plan.optimize`, which dedups,
normalizes filters and fuses shared prefixes into a schedule) is off the
served path: a leaf this package re-exports for the benchmark's probe, and
that no served module imports.
"""

from .compiler import PlanCompiler, resolve_route
from .executor import ColumnarExecutor, JoinSideSpec
from .ir import (
    OUT_OF_DOMAIN,
    ROUTE_BAYES_NET,
    ROUTE_HYBRID,
    ROUTE_SAMPLE,
    SHAPE_GROUP_BY,
    SHAPE_JOIN_GROUP_BY,
    SHAPE_POINT,
    SHAPE_SCALAR,
    SHAPE_TABLE,
    Aggregate,
    CanonicalPredicate,
    Filter,
    Group,
    Having,
    HavingCondition,
    Join,
    Limit,
    LogicalPlan,
    PlanKey,
    Route,
    Scan,
    Sort,
    Window,
    WindowOp,
    query_shape,
)
from .analytics import execute_table_pipeline
from .kernels import (
    fused_group_columns,
    MaskCache,
    RowPartition,
    fused_group_reduce,
    merge_join_sides,
    numeric_column,
    partitioned_group_columns,
    partitioned_grouped_weight_totals,
    partitioned_scalar_reduce,
)
from .optimize import (
    OptimizerStats,
    PhysicalSchedule,
    ScheduleUnit,
    normalize_plan,
    normalize_predicates,
    optimize_batch,
)
from .wire import (
    WIRE_FORMAT_NAME,
    WIRE_FORMAT_VERSION,
    deserialize_node,
    deserialize_plan,
    deserialize_query,
    plan_from_json,
    plan_to_json,
    serialize_node,
    serialize_plan,
    serialize_query,
)

__all__ = [
    "Aggregate",
    "CanonicalPredicate",
    "ColumnarExecutor",
    "Filter",
    "Group",
    "Having",
    "HavingCondition",
    "Join",
    "Limit",
    "JoinSideSpec",
    "LogicalPlan",
    "MaskCache",
    "OUT_OF_DOMAIN",
    "PlanCompiler",
    "PlanKey",
    "ROUTE_BAYES_NET",
    "ROUTE_HYBRID",
    "ROUTE_SAMPLE",
    "Route",
    "RowPartition",
    "SHAPE_GROUP_BY",
    "SHAPE_JOIN_GROUP_BY",
    "SHAPE_POINT",
    "SHAPE_SCALAR",
    "SHAPE_TABLE",
    "OptimizerStats",
    "PhysicalSchedule",
    "Scan",
    "ScheduleUnit",
    "Sort",
    "WIRE_FORMAT_NAME",
    "WIRE_FORMAT_VERSION",
    "Window",
    "WindowOp",
    "deserialize_node",
    "deserialize_plan",
    "deserialize_query",
    "execute_table_pipeline",
    "fused_group_columns",
    "fused_group_reduce",
    "merge_join_sides",
    "normalize_plan",
    "normalize_predicates",
    "numeric_column",
    "optimize_batch",
    "partitioned_group_columns",
    "partitioned_grouped_weight_totals",
    "partitioned_scalar_reduce",
    "plan_from_json",
    "plan_to_json",
    "query_shape",
    "resolve_route",
    "serialize_node",
    "serialize_plan",
    "serialize_query",
]
