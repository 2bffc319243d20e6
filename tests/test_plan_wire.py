"""The plan wire format: round-trips, key verification, golden compatibility.

Three layers of guarantees:

* **Round-trip identity** — ``deserialize(serialize(plan))`` rebuilds an
  equal tree, equal AST, and an *identical canonical key*, property-tested
  over randomized ``MixedQueryWorkload`` plans (every shape the system can
  compile) plus hand-built plans covering every IR node type.
* **Error discipline** — malformed payloads, unknown tags, version skew,
  and cross-schema key disagreement all raise ``WireFormatError`` loudly.
* **Golden compatibility** — ``tests/data/plan_wire_v2.json`` pins the
  exact canonical bytes of a fixed plan set; any encoding change without a
  ``WIRE_FORMAT_VERSION`` bump fails here with regeneration instructions.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import WireFormatError
from repro.plan import (
    WIRE_FORMAT_VERSION,
    PlanCompiler,
    deserialize_plan,
    plan_from_json,
    plan_to_json,
    serialize_plan,
)
from repro.plan.wire import decode_value, encode_value
from repro.query.workload import MixedQueryWorkload
from repro.schema import Attribute, Domain, Relation, Schema

from golden_plans import GOLDEN_PATH, golden_plans, golden_queries
from worlds import build_fitted_themis


@pytest.fixture(scope="module")
def themis():
    return build_fitted_themis()


@pytest.fixture(scope="module")
def compiler(themis):
    return PlanCompiler(themis.sample.schema)


def _assert_round_trip(plan, compiler):
    text = plan_to_json(plan)
    rebuilt = plan_from_json(text)
    assert rebuilt.key == plan.key
    assert rebuilt.root == plan.root
    assert rebuilt.query == plan.query
    assert rebuilt.shape == plan.shape
    assert rebuilt.sql == plan.sql
    # Canonical bytes: equal plans serialize to equal JSON.
    assert plan_to_json(rebuilt) == text
    # With a receiver compiler: recompiled, key-verified, route restored.
    verified = plan_from_json(text, compiler)
    assert verified.key == plan.key
    assert verified.root == plan.root


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_every_golden_plan_round_trips(self, themis, compiler):
        for name, plan in golden_plans(themis.sample.schema).items():
            _assert_round_trip(plan, compiler)

    @pytest.mark.parametrize("seed", [3, 17, 202, 5087])
    def test_randomized_workload_plans_round_trip(self, themis, compiler, seed):
        workload = MixedQueryWorkload(themis.sample, seed=seed)
        entries = workload.generate(
            n_point=6, n_scalar=6, n_group_by=6, n_analytic=10
        )
        shapes = set()
        for entry in entries:
            plan = compiler.compile(entry.query)
            shapes.add(plan.shape)
            _assert_round_trip(plan, compiler)
        assert shapes == {"point", "scalar", "group-by", "table"}, (
            f"workload seed {seed} missed a shape: {shapes}"
        )

    def test_routed_plans_survive_the_wire(self, themis, compiler):
        session = themis.serve()
        executor = session._ensure_current()
        workload = MixedQueryWorkload(themis.sample, seed=23)
        for entry in workload.generate(n_point=4, n_scalar=4, n_group_by=4):
            routed = executor.plan(entry.query)
            assert routed.root.choice is not None
            rebuilt = plan_from_json(plan_to_json(routed), compiler)
            assert rebuilt.root.choice == routed.root.choice
            assert rebuilt.key == routed.key

    def test_sql_compiled_plans_round_trip(self, compiler):
        for sql in [
            "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 2",
            "SELECT AVG(B) FROM R WHERE A IN (0, 2)",
            "SELECT A, COUNT(*) FROM R WHERE B <= 1 GROUP BY A",
            "SELECT A, COUNT(*) AS n FROM R GROUP BY A "
            "HAVING n > 1 ORDER BY n DESC LIMIT 2",
        ]:
            _assert_round_trip(compiler.compile_sql(sql), compiler)


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------
class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -3, 1.5, "x", (), (1, ("a", 2.0)), [1, (2, 3)]],
    )
    def test_exact_round_trip(self, value):
        assert decode_value(encode_value(value)) == value
        # container types restore exactly, not as a look-alike
        assert type(decode_value(encode_value(value))) is type(value)

    def test_numpy_scalars_unwrap(self):
        import numpy as np

        assert decode_value(encode_value(np.int64(7))) == 7
        assert isinstance(decode_value(encode_value(np.float64(1.5))), float)

    def test_unencodable_value_raises(self):
        with pytest.raises(WireFormatError, match="cannot encode"):
            encode_value(object())

    def test_malformed_payload_raises(self):
        with pytest.raises(WireFormatError, match="malformed wire value"):
            decode_value({"__kind__": "set", "items": []})


# ---------------------------------------------------------------------------
# Error discipline
# ---------------------------------------------------------------------------
class TestErrors:
    @pytest.fixture()
    def payload(self, themis, compiler):
        plan = compiler.compile(golden_queries()["point"])
        return serialize_plan(plan)

    def test_version_skew_raises(self, payload):
        payload["version"] = WIRE_FORMAT_VERSION + 1
        with pytest.raises(WireFormatError, match="version mismatch"):
            deserialize_plan(payload)

    def test_wrong_format_tag_raises(self, payload):
        payload["format"] = "themis/other"
        with pytest.raises(WireFormatError, match="not a plan payload"):
            deserialize_plan(payload)

    def test_unknown_node_tag_raises(self, payload):
        payload["root"]["node"] = "teleport"
        with pytest.raises(WireFormatError, match="unknown plan node tag"):
            deserialize_plan(payload)

    @pytest.mark.parametrize("tag", [{"node": "scan"}, ["route"]], ids=["dict", "list"])
    def test_unhashable_node_tag_raises(self, payload, tag):
        payload["root"]["node"] = tag
        with pytest.raises(WireFormatError, match="unknown plan node tag"):
            deserialize_plan(payload)

    def test_unknown_query_tag_raises(self, payload):
        payload["query"]["query"] = "recursive-cte"
        with pytest.raises(WireFormatError, match="unknown query tag"):
            deserialize_plan(payload)

    def test_missing_field_raises(self, payload):
        del payload["key"]
        with pytest.raises(WireFormatError, match="missing field"):
            deserialize_plan(payload)

    def test_invalid_json_raises(self):
        with pytest.raises(WireFormatError, match="not valid JSON"):
            plan_from_json("{not json")

    def test_cross_schema_key_mismatch_raises(self, payload):
        # A receiver whose B-domain is missing the literal 2 buckets the
        # point query's B = 2 as OUT_OF_DOMAIN -> canonical keys disagree ->
        # loud error, not a silently split cache.
        other_schema = Schema(
            (
                Attribute("A", Domain((0, 1, 2))),
                Attribute("B", Domain((0, 1))),
                Attribute("C", Domain((0, 1))),
            )
        )
        other = PlanCompiler(other_schema)
        with pytest.raises(WireFormatError, match="key mismatch"):
            deserialize_plan(payload, other)


# ---------------------------------------------------------------------------
# Golden-file compatibility
# ---------------------------------------------------------------------------
class TestGoldenCompatibility:
    @pytest.fixture(scope="class")
    def fixture(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_golden_version_matches_code(self, fixture):
        assert fixture["wire_format_version"] == WIRE_FORMAT_VERSION, (
            "WIRE_FORMAT_VERSION moved without regenerating the golden file; "
            "run `python tests/golden_plans.py` and commit the new fixture"
        )

    def test_encoding_unchanged_without_version_bump(self, themis, fixture):
        """The loud tripwire: encoding drift requires a version increment.

        If this fails and you *did* change the wire encoding on purpose:
        bump ``WIRE_FORMAT_VERSION``, regenerate with
        ``python tests/golden_plans.py``, and note the break in the docs.
        If you didn't mean to change the encoding, the diff below is a
        compatibility break reaching every serialized plan in flight.
        """
        plans = golden_plans(themis.sample.schema)
        assert set(plans) == set(fixture["plans"]), (
            "golden plan set drifted from tests/golden_plans.py"
        )
        for name, plan in plans.items():
            produced = json.loads(plan_to_json(plan))
            assert produced == fixture["plans"][name], (
                f"wire encoding of {name!r} changed but WIRE_FORMAT_VERSION "
                f"is still {WIRE_FORMAT_VERSION}: bump the version and "
                f"regenerate tests/data/{GOLDEN_PATH.name}"
            )

    def test_golden_payloads_decode_to_live_plans(self, themis, compiler, fixture):
        plans = golden_plans(themis.sample.schema)
        for name, payload in fixture["plans"].items():
            rebuilt = deserialize_plan(payload, compiler)
            assert rebuilt.key == plans[name].key
