"""Bayesian networks over relation schemas.

A :class:`BayesianNetwork` is a DAG over attribute names plus one
:class:`~repro.bayesnet.cpt.ConditionalProbabilityTable` per node.  It
represents the approximate population distribution Themis uses to answer
queries about tuples that do not appear in the sample.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from ..exceptions import BayesNetError
from ..schema import Relation, Schema
from .cpt import ConditionalProbabilityTable, cpt_for_schema
from .dag import DirectedAcyclicGraph
from .factor import Factor


class BayesianNetwork:
    """A discrete Bayesian network whose nodes are schema attributes.

    Parameters
    ----------
    schema:
        The schema defining attribute domains.  Every schema attribute is a
        node of the network.
    graph:
        Optional initial DAG (defaults to the empty graph over all attributes).
    cpts:
        Optional mapping from node name to CPT; missing CPTs default to the
        uniform distribution consistent with the graph.
    """

    def __init__(
        self,
        schema: Schema,
        graph: DirectedAcyclicGraph | None = None,
        cpts: Mapping[str, ConditionalProbabilityTable] | None = None,
    ):
        self._schema = schema
        if graph is None:
            graph = DirectedAcyclicGraph(nodes=schema.names)
        else:
            for name in schema.names:
                graph.add_node(name)
            for node in graph.nodes:
                if node not in schema:
                    raise BayesNetError(f"graph node {node!r} is not in the schema")
        self._graph = graph
        self._cpts: dict[str, ConditionalProbabilityTable] = {}
        for name in schema.names:
            if cpts and name in cpts:
                self.set_cpt(cpts[name])
            else:
                self._cpts[name] = cpt_for_schema(schema, name, graph.parents(name))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The schema the network is defined over."""
        return self._schema

    @property
    def graph(self) -> DirectedAcyclicGraph:
        """The network structure."""
        return self._graph

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node (attribute) names."""
        return self._schema.names

    def parents(self, node: str) -> tuple[str, ...]:
        """Parents of ``node`` in the structure."""
        return self._graph.parents(node)

    def cpt(self, node: str) -> ConditionalProbabilityTable:
        """The CPT of ``node``."""
        if node not in self._cpts:
            raise BayesNetError(f"no CPT for node {node!r}")
        return self._cpts[node]

    def cpts(self) -> dict[str, ConditionalProbabilityTable]:
        """All CPTs keyed by node name."""
        return dict(self._cpts)

    def set_cpt(self, cpt: ConditionalProbabilityTable) -> None:
        """Install a CPT, checking it matches the schema and structure."""
        name = cpt.child
        if name not in self._schema:
            raise BayesNetError(f"CPT child {name!r} is not a schema attribute")
        expected_parents = self._graph.parents(name)
        if tuple(cpt.parents) != expected_parents:
            raise BayesNetError(
                f"CPT for {name!r} has parents {cpt.parents}, structure says "
                f"{expected_parents}"
            )
        if cpt.child_size != self._schema[name].size:
            raise BayesNetError(
                f"CPT for {name!r} has child size {cpt.child_size}, schema says "
                f"{self._schema[name].size}"
            )
        self._cpts[name] = cpt

    def n_parameters(self) -> int:
        """Total number of free parameters across all CPTs (BIC penalty term)."""
        return sum(cpt.n_parameters for cpt in self._cpts.values())

    def topological_order(self) -> list[str]:
        """Nodes ordered parents-before-children."""
        return self._graph.topological_order()

    def factors(self) -> list[Factor]:
        """All CPTs converted to factors (for inference)."""
        return [cpt.to_factor() for cpt in self._cpts.values()]

    def copy(self) -> "BayesianNetwork":
        """A deep copy of the network."""
        return BayesianNetwork(
            self._schema,
            self._graph.copy(),
            {name: cpt.copy() for name, cpt in self._cpts.items()},
        )

    def __repr__(self) -> str:
        return (
            f"BayesianNetwork(nodes={len(self.nodes)}, edges={self._graph.n_edges},"
            f" parameters={self.n_parameters()})"
        )

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------
    def _encode_assignment(self, assignment: Mapping[str, Any]) -> dict[str, int]:
        encoded: dict[str, int] = {}
        for name, value in assignment.items():
            domain = self._schema[name].domain
            code = domain.code_of(value)
            if code is None:
                raise BayesNetError(
                    f"value {value!r} is not in the domain of attribute {name!r}"
                )
            encoded[name] = code
        return encoded

    def joint_probability(self, assignment: Mapping[str, Any]) -> float:
        """Probability of a *complete* assignment (one value per node)."""
        missing = [name for name in self.nodes if name not in assignment]
        if missing:
            raise BayesNetError(
                f"joint_probability needs every node assigned; missing {missing}"
            )
        encoded = self._encode_assignment(assignment)
        probability = 1.0
        for name in self.nodes:
            cpt = self._cpts[name]
            parent_codes = [encoded[parent] for parent in cpt.parents]
            probability *= cpt.probability(encoded[name], parent_codes)
            if probability == 0.0:
                return 0.0
        return float(probability)

    def log_likelihood(self, relation: Relation, weighted: bool = False) -> float:
        """(Weighted) log-likelihood of a relation under the network.

        Zero-probability tuples are floored at a tiny constant so the
        log-likelihood stays finite (matching standard BN scoring practice).
        """
        if relation.n_rows == 0:
            return 0.0
        floor = 1e-300
        weights = relation.weights if weighted else np.ones(relation.n_rows)
        total = 0.0
        for name in self.nodes:
            cpt = self._cpts[name]
            child_codes = relation.column(name)
            if cpt.parents:
                config = np.zeros(relation.n_rows, dtype=np.int64)
                for parent, size in zip(cpt.parents, cpt.parent_sizes):
                    config = config * size + relation.column(parent)
            else:
                config = np.zeros(relation.n_rows, dtype=np.int64)
            probabilities = cpt.table[config, child_codes]
            total += float(np.sum(weights * np.log(np.maximum(probabilities, floor))))
        return total
