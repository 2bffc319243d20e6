"""The plan wire format: versioned, canonical (de)serialization of plans.

The sharded serving tier ships compiled plans across process boundaries, so
every IR node — ``Scan``/``Filter``/``Group``/``Join``/``Aggregate``/
``Having``/``Window``/``Sort``/``Limit``/``Route`` — and every query AST
shape has a dict encoding that round-trips losslessly through JSON.  The
design follows the visitor shape of ``lsst.daf.relation``'s relation-tree
serialization: one serializer function per node type dispatched off the
node's class, one deserializer per tag dispatched off the payload's
``"node"`` / ``"query"`` tag, and a tagged value codec underneath so tuples,
lists, and numpy scalars survive the trip exactly.

Three invariants make the format safe to use as a transport:

* **Canonical bytes.**  :func:`plan_to_json` emits sorted-key, separator-free
  JSON, so equal plans serialize to equal bytes — the golden-file
  compatibility tests and the consistent-hash shard router both rely on it.
* **Versioning.**  Every payload carries :data:`WIRE_FORMAT_VERSION`;
  decoding a payload from a different version raises
  :class:`~repro.exceptions.WireFormatError` loudly instead of guessing.
  Any change to node encodings MUST bump the version (a checked-in golden
  file fails the build otherwise).
* **Key verification.**  When the receiver passes its own
  :class:`~repro.plan.PlanCompiler`, :func:`deserialize_plan` recompiles the
  decoded query and verifies the sender's canonical plan key matches — a
  mismatch means the two processes disagree about the schema (different
  domains, different bucketization) and is an error, not a silent cache split.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

import numpy as np

from ..exceptions import QueryError, ThemisError, WireFormatError
from ..query.ast import (
    AggregateFunction,
    AggregateSpec,
    AnalyticQuery,
    Comparison,
    GroupByQuery,
    HavingPredicate,
    JoinGroupByQuery,
    OrderKey,
    PointQuery,
    Predicate,
    Query,
    ScalarAggregateQuery,
    WindowFunction,
    WindowSpec,
)
from .ir import (
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
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compiler import PlanCompiler

#: Version stamp carried by every serialized plan.  Bump it whenever any
#: node/query/value encoding changes shape — the golden-file test in
#: ``tests/test_plan_wire.py`` fails loudly when encodings drift without a
#: version increment.
WIRE_FORMAT_VERSION = 2

#: The ``"format"`` tag every payload carries.
WIRE_FORMAT_NAME = "themis/plan"


# ----------------------------------------------------------------------
# Value codec: exact round-trips for the literal types plans carry
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """Encode one literal into a JSON-safe form that decodes back exactly.

    Scalars (``None``/bool/int/float/str) pass through (numpy scalars are
    unwrapped to their Python equivalents); tuples and lists are tagged so
    the container type — which matters for dataclass equality — survives.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, tuple):
        return {"__kind__": "tuple", "items": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"__kind__": "list", "items": [encode_value(item) for item in value]}
    raise WireFormatError(
        f"cannot encode value {value!r} of type {type(value).__name__} for the wire"
    )


def decode_value(payload: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(payload, dict):
        kind = payload.get("__kind__")
        items = payload.get("items")
        if kind == "tuple" and isinstance(items, list):
            return tuple(decode_value(item) for item in items)
        if kind == "list" and isinstance(items, list):
            return [decode_value(item) for item in items]
        raise WireFormatError(f"malformed wire value {payload!r}")
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    raise WireFormatError(f"malformed wire value {payload!r}")


# ----------------------------------------------------------------------
# IR node visitors (serialize)
# ----------------------------------------------------------------------
def _serialize_predicate(predicate: CanonicalPredicate) -> dict[str, Any]:
    return {
        "attribute": predicate.attribute,
        "comparison": predicate.comparison.value,
        "bucket": encode_value(predicate.bucket),
        "literal": encode_value(predicate.literal),
    }


def _serialize_scan(node: Scan) -> dict[str, Any]:
    return {"node": "scan", "source": node.source}


def _serialize_filter(node: Filter) -> dict[str, Any]:
    return {
        "node": "filter",
        "child": serialize_node(node.child),
        "predicates": [_serialize_predicate(p) for p in node.predicates],
    }


def _serialize_group(node: Group) -> dict[str, Any]:
    return {
        "node": "group",
        "child": serialize_node(node.child),
        "keys": list(node.keys),
    }


def _serialize_join(node: Join) -> dict[str, Any]:
    return {
        "node": "join",
        "left": serialize_node(node.left),
        "right": serialize_node(node.right),
        "on": list(node.on),
    }


def _serialize_aggregate(node: Aggregate) -> dict[str, Any]:
    return {
        "node": "aggregate",
        "child": serialize_node(node.child),
        "function": node.function,
        "attribute": node.attribute,
        "extras": [[function, attribute] for function, attribute in node.extras],
    }


def _serialize_having(node: Having) -> dict[str, Any]:
    return {
        "node": "having",
        "child": serialize_node(node.child),
        "conditions": [
            {
                "column": c.column,
                "comparison": c.comparison.value,
                "value": c.value,
                "label": c.label,
            }
            for c in node.conditions
        ],
    }


def _serialize_window(node: Window) -> dict[str, Any]:
    return {
        "node": "window",
        "child": serialize_node(node.child),
        "ops": [
            {
                "function": op.function,
                "source": op.source,
                "partition": list(op.partition),
                "order": [[column, descending] for column, descending in op.order],
                "label": op.label,
            }
            for op in node.ops
        ],
    }


def _serialize_sort(node: Sort) -> dict[str, Any]:
    return {
        "node": "sort",
        "child": serialize_node(node.child),
        "keys": [[column, descending] for column, descending in node.keys],
    }


def _serialize_limit(node: Limit) -> dict[str, Any]:
    return {"node": "limit", "child": serialize_node(node.child), "count": node.count}


def _serialize_route(node: Route) -> dict[str, Any]:
    return {
        "node": "route",
        "child": serialize_node(node.child),
        "choice": node.choice,
    }


_NODE_SERIALIZERS = {
    Scan: _serialize_scan,
    Filter: _serialize_filter,
    Group: _serialize_group,
    Join: _serialize_join,
    Aggregate: _serialize_aggregate,
    Having: _serialize_having,
    Window: _serialize_window,
    Sort: _serialize_sort,
    Limit: _serialize_limit,
    Route: _serialize_route,
}


def serialize_node(node: Any) -> dict[str, Any]:
    """Serialize one IR node (and its subtree) into its wire dict."""
    serializer = _NODE_SERIALIZERS.get(type(node))
    if serializer is None:
        raise WireFormatError(
            f"cannot serialize plan node of type {type(node).__name__}"
        )
    return serializer(node)


# ----------------------------------------------------------------------
# IR node visitors (deserialize)
# ----------------------------------------------------------------------
def _decode_predicate(payload: dict[str, Any]) -> CanonicalPredicate:
    return CanonicalPredicate(
        attribute=payload["attribute"],
        comparison=Comparison(payload["comparison"]),
        bucket=decode_value(payload["bucket"]),
        literal=decode_value(payload["literal"]),
    )


def _deserialize_scan(payload: dict[str, Any]) -> Scan:
    return Scan(source=payload["source"])


def _deserialize_filter(payload: dict[str, Any]) -> Filter:
    return Filter(
        child=deserialize_node(payload["child"]),
        predicates=tuple(_decode_predicate(p) for p in payload["predicates"]),
    )


def _deserialize_group(payload: dict[str, Any]) -> Group:
    return Group(
        child=deserialize_node(payload["child"]), keys=tuple(payload["keys"])
    )


def _deserialize_join(payload: dict[str, Any]) -> Join:
    left_on, right_on = payload["on"]
    return Join(
        left=deserialize_node(payload["left"]),
        right=deserialize_node(payload["right"]),
        on=(left_on, right_on),
    )


def _deserialize_aggregate(payload: dict[str, Any]) -> Aggregate:
    return Aggregate(
        child=deserialize_node(payload["child"]),
        function=payload["function"],
        attribute=payload["attribute"],
        extras=tuple((function, attribute) for function, attribute in payload["extras"]),
    )


def _deserialize_having(payload: dict[str, Any]) -> Having:
    return Having(
        child=deserialize_node(payload["child"]),
        conditions=tuple(
            HavingCondition(
                column=c["column"],
                comparison=Comparison(c["comparison"]),
                value=c["value"],
                label=c["label"],
            )
            for c in payload["conditions"]
        ),
    )


def _deserialize_window(payload: dict[str, Any]) -> Window:
    return Window(
        child=deserialize_node(payload["child"]),
        ops=tuple(
            WindowOp(
                function=op["function"],
                source=op["source"],
                partition=tuple(op["partition"]),
                order=tuple((column, descending) for column, descending in op["order"]),
                label=op["label"],
            )
            for op in payload["ops"]
        ),
    )


def _deserialize_sort(payload: dict[str, Any]) -> Sort:
    return Sort(
        child=deserialize_node(payload["child"]),
        keys=tuple((column, descending) for column, descending in payload["keys"]),
    )


def _deserialize_limit(payload: dict[str, Any]) -> Limit:
    return Limit(child=deserialize_node(payload["child"]), count=payload["count"])


def _deserialize_route(payload: dict[str, Any]) -> Route:
    return Route(
        child=deserialize_node(payload["child"]),
        choice=payload["choice"],
    )


_NODE_DESERIALIZERS = {
    "scan": _deserialize_scan,
    "filter": _deserialize_filter,
    "group": _deserialize_group,
    "join": _deserialize_join,
    "aggregate": _deserialize_aggregate,
    "having": _deserialize_having,
    "window": _deserialize_window,
    "sort": _deserialize_sort,
    "limit": _deserialize_limit,
    "route": _deserialize_route,
}


def deserialize_node(payload: dict[str, Any]) -> Any:
    """Reconstruct one IR node (and its subtree) from its wire dict."""
    if not isinstance(payload, dict):
        raise WireFormatError(f"expected a node dict, got {payload!r}")
    tag = payload.get("node")
    # A tag of the wrong type (a dict, a list) is unknown, not unhashable.
    deserializer = _NODE_DESERIALIZERS.get(tag) if isinstance(tag, str) else None
    if deserializer is None:
        raise WireFormatError(f"unknown plan node tag {tag!r}")
    try:
        return deserializer(payload)
    except (KeyError, TypeError, ValueError, QueryError) as error:
        raise WireFormatError(
            f"malformed {tag!r} node payload: {error}"
        ) from error


# ----------------------------------------------------------------------
# Query AST visitors
# ----------------------------------------------------------------------
def _serialize_ast_predicate(predicate: Predicate) -> dict[str, Any]:
    return {
        "attribute": predicate.attribute,
        "comparison": predicate.comparison.value,
        "value": encode_value(predicate.value),
    }


def _decode_ast_predicate(payload: dict[str, Any]) -> Predicate:
    return Predicate(
        attribute=payload["attribute"],
        comparison=Comparison(payload["comparison"]),
        value=decode_value(payload["value"]),
    )


def _serialize_spec(spec: AggregateSpec) -> dict[str, Any]:
    return {
        "function": spec.function.value,
        "attribute": spec.attribute,
        "alias": spec.alias,
    }


def _decode_spec(payload: dict[str, Any]) -> AggregateSpec:
    return AggregateSpec(
        function=AggregateFunction(payload["function"]),
        attribute=payload["attribute"],
        alias=payload.get("alias"),
    )


def serialize_query(query: Query) -> dict[str, Any]:
    """Serialize one query AST into its wire dict."""
    if isinstance(query, PointQuery):
        return {
            "query": "point",
            "assignment": [
                [name, encode_value(value)] for name, value in query.assignment
            ],
        }
    if isinstance(query, ScalarAggregateQuery):
        return {
            "query": "scalar",
            "aggregate": _serialize_spec(query.aggregate),
            "predicates": [_serialize_ast_predicate(p) for p in query.predicates],
        }
    if isinstance(query, GroupByQuery):
        return {
            "query": "group-by",
            "group_by": list(query.group_by),
            "aggregate": _serialize_spec(query.aggregate),
            "predicates": [_serialize_ast_predicate(p) for p in query.predicates],
        }
    if isinstance(query, JoinGroupByQuery):
        return {
            "query": "join-group-by",
            "left_join": query.left_join,
            "right_join": query.right_join,
            "left_group": query.left_group,
            "right_group": query.right_group,
            "left_predicates": [
                _serialize_ast_predicate(p) for p in query.left_predicates
            ],
            "right_predicates": [
                _serialize_ast_predicate(p) for p in query.right_predicates
            ],
            "aggregate": _serialize_spec(query.aggregate),
        }
    if isinstance(query, AnalyticQuery):
        return {
            "query": "analytic",
            "group_by": list(query.group_by),
            "aggregates": [_serialize_spec(spec) for spec in query.aggregates],
            "predicates": [_serialize_ast_predicate(p) for p in query.predicates],
            "having": [
                {
                    "target": h.target,
                    "comparison": h.comparison.value,
                    "value": h.value,
                }
                for h in query.having
            ],
            "windows": [
                {
                    "function": w.function.value,
                    "alias": w.alias,
                    "target": w.target,
                    "partition_by": list(w.partition_by),
                    "order_by": [
                        {"target": k.target, "descending": k.descending}
                        for k in w.order_by
                    ],
                }
                for w in query.windows
            ],
            "order_by": [
                {"target": k.target, "descending": k.descending}
                for k in query.order_by
            ],
            "limit": query.limit,
        }
    raise WireFormatError(f"cannot serialize query of type {type(query).__name__}")


def deserialize_query(payload: dict[str, Any]) -> Query:
    """Reconstruct one query AST from its wire dict."""
    if not isinstance(payload, dict):
        raise WireFormatError(f"expected a query dict, got {payload!r}")
    tag = payload.get("query")
    try:
        if tag == "point":
            return PointQuery(
                {name: decode_value(value) for name, value in payload["assignment"]}
            )
        if tag == "scalar":
            return ScalarAggregateQuery(
                aggregate=_decode_spec(payload["aggregate"]),
                predicates=tuple(
                    _decode_ast_predicate(p) for p in payload["predicates"]
                ),
            )
        if tag == "group-by":
            return GroupByQuery(
                group_by=tuple(payload["group_by"]),
                aggregate=_decode_spec(payload["aggregate"]),
                predicates=tuple(
                    _decode_ast_predicate(p) for p in payload["predicates"]
                ),
            )
        if tag == "join-group-by":
            return JoinGroupByQuery(
                left_join=payload["left_join"],
                right_join=payload["right_join"],
                left_group=payload["left_group"],
                right_group=payload["right_group"],
                left_predicates=tuple(
                    _decode_ast_predicate(p) for p in payload["left_predicates"]
                ),
                right_predicates=tuple(
                    _decode_ast_predicate(p) for p in payload["right_predicates"]
                ),
                aggregate=_decode_spec(payload["aggregate"]),
            )
        if tag == "analytic":
            return AnalyticQuery(
                group_by=tuple(payload["group_by"]),
                aggregates=tuple(_decode_spec(s) for s in payload["aggregates"]),
                predicates=tuple(
                    _decode_ast_predicate(p) for p in payload["predicates"]
                ),
                having=tuple(
                    HavingPredicate(
                        target=h["target"],
                        comparison=Comparison(h["comparison"]),
                        value=h["value"],
                    )
                    for h in payload["having"]
                ),
                windows=tuple(
                    WindowSpec(
                        function=WindowFunction(w["function"]),
                        alias=w["alias"],
                        target=w["target"],
                        partition_by=tuple(w["partition_by"]),
                        order_by=tuple(
                            OrderKey(k["target"], descending=k["descending"])
                            for k in w["order_by"]
                        ),
                    )
                    for w in payload["windows"]
                ),
                order_by=tuple(
                    OrderKey(k["target"], descending=k["descending"])
                    for k in payload["order_by"]
                ),
                limit=payload["limit"],
            )
    except (KeyError, TypeError, ValueError, QueryError) as error:
        # QueryError included: the AST constructors validate their own
        # invariants (non-empty GROUP BY, integer LIMIT, ...), and a payload
        # that decodes into an invalid AST is a malformed payload.
        raise WireFormatError(f"malformed {tag!r} query payload: {error}") from error
    raise WireFormatError(f"unknown query tag {tag!r}")


# ----------------------------------------------------------------------
# Whole-plan entry points
# ----------------------------------------------------------------------
def serialize_plan(plan: LogicalPlan) -> dict[str, Any]:
    """Serialize one compiled plan into its versioned wire dict.

    The payload carries the full operator tree (every node, visitor-walked),
    the original query AST, the canonical plan key, and the plan's
    shape/sql/labels metadata — everything :func:`deserialize_plan` needs to
    reconstruct an equal :class:`~repro.plan.LogicalPlan` in another process.
    """
    return {
        "format": WIRE_FORMAT_NAME,
        "version": WIRE_FORMAT_VERSION,
        "shape": plan.shape,
        "key": encode_value(plan.key),
        "sql": plan.sql,
        "labels": encode_value(plan.labels),
        "query": serialize_query(plan.query),
        "root": serialize_node(plan.root),
    }


def deserialize_plan(
    payload: dict[str, Any],
    compiler: "PlanCompiler | None" = None,
) -> LogicalPlan:
    """Reconstruct a :class:`~repro.plan.LogicalPlan` from its wire dict.

    Without a ``compiler`` the plan is rebuilt purely from the payload (tree,
    key, and AST all decoded by the node visitors).  With one, the decoded
    AST is recompiled against the receiver's schema and the sender's
    canonical key is **verified** against the recompiled plan's — the two
    processes proving they agree on what the query means — and the returned
    plan is the recompiled one (sharing the receiver compiler's memoized
    subobjects) with the sender's sql/route metadata re-attached.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(f"expected a plan payload dict, got {payload!r}")
    if payload.get("format") != WIRE_FORMAT_NAME:
        raise WireFormatError(
            f"not a plan payload: format tag is {payload.get('format')!r}, "
            f"expected {WIRE_FORMAT_NAME!r}"
        )
    version = payload.get("version")
    if version != WIRE_FORMAT_VERSION:
        raise WireFormatError(
            f"plan wire format version mismatch: payload is v{version!r}, this "
            f"process speaks v{WIRE_FORMAT_VERSION}"
        )
    try:
        shape = payload["shape"]
        key: PlanKey = decode_value(payload["key"])
        sql = payload["sql"]
        labels = decode_value(payload["labels"])
        query = deserialize_query(payload["query"])
        root = deserialize_node(payload["root"])
    except KeyError as error:
        raise WireFormatError(f"plan payload missing field {error}") from error
    if not isinstance(root, Route):
        raise WireFormatError(
            f"plan payload root must be a route node, got {type(root).__name__}"
        )

    if compiler is None:
        return LogicalPlan(
            query=query, root=root, shape=shape, key=key, sql=sql, labels=labels
        )

    try:
        recompiled = compiler.compile(query)
    except ThemisError as error:
        # The decoded AST is well-formed but this process cannot compile it
        # (unknown attribute, incompatible domain, ...): the sender and
        # receiver disagree about the schema, which is a wire-level error.
        raise WireFormatError(
            f"decoded query does not compile against the receiver schema: {error}"
        ) from error
    if recompiled.key != key:
        raise WireFormatError(
            f"canonical plan key mismatch: sender serialized {key!r} but this "
            f"process compiles the same query to {recompiled.key!r} — the two "
            f"sides disagree about the schema"
        )
    plan = LogicalPlan(
        query=recompiled.query,
        root=recompiled.root,
        shape=recompiled.shape,
        key=recompiled.key,
        sql=sql,
        labels=recompiled.labels,
    )
    if root.choice is not None:
        plan = plan.with_route(root.choice)
    return plan


def plan_to_json(plan: LogicalPlan) -> str:
    """Canonical JSON text of one plan: sorted keys, no whitespace.

    Equal plans produce equal bytes, which is what the golden-file
    compatibility fixtures pin and what stable cross-process hashing needs.
    """
    return json.dumps(serialize_plan(plan), sort_keys=True, separators=(",", ":"))


def plan_from_json(
    text: str, compiler: "PlanCompiler | None" = None
) -> LogicalPlan:
    """Decode a plan from its (canonical or pretty) JSON text."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise WireFormatError(f"plan payload is not valid JSON: {error}") from error
    return deserialize_plan(payload, compiler)
