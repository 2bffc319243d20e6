"""Ablation — the Bayesian-network constraint simplification of Sec. 5.2.

The paper reports that without the simplification (per-factor linear
constraints solved in topological order) the parameter-learning optimization
"did not finish in under 10 hours".  This ablation makes the comparison
concrete at a tiny scale: a naive solver that optimizes *all* CPT parameters
jointly under the original non-linear marginal constraints is run against the
simplified per-factor learner on a small Flights sub-schema, comparing both
solve time and the marginal-constraint violation of the result.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from ..aggregates import AggregateSet, aggregates_from_population
from ..bayesnet import BayesianNetwork, DirectedAcyclicGraph, ExactInference, ParameterLearner
from ..schema import Relation
from .config import ExperimentScale, SMALL_SCALE
from .reporting import ExperimentResult


def _naive_joint_solve(
    graph: DirectedAcyclicGraph,
    sample: Relation,
    aggregates: AggregateSet,
    population_size: float,
    max_iterations: int = 25,
) -> tuple[BayesianNetwork, float]:
    """Solve Eq. 2 directly: all CPTs at once, non-linear marginal constraints.

    Returns the network and the wall-clock seconds spent in the solver.  Only
    usable for very small schemas — which is exactly the point of the
    ablation.
    """
    schema = sample.schema
    network = BayesianNetwork(schema, graph.copy())

    # Flatten every CPT into one parameter vector.
    layout: list[tuple[str, int, int]] = []  # (node, offset, length)
    offset = 0
    initial: list[np.ndarray] = []
    learner = ParameterLearner(use_aggregates=False)
    seeded, _ = learner.learn(graph, schema, sample)
    for node in network.topological_order():
        table = seeded.cpt(node).table
        layout.append((node, offset, table.size))
        initial.append(table.reshape(-1))
        offset += table.size
    x0 = np.concatenate(initial)

    def unpack(flat: np.ndarray) -> BayesianNetwork:
        candidate = BayesianNetwork(schema, graph.copy())
        for node, start, length in layout:
            cpt = candidate.cpt(node)
            cpt.table = np.clip(flat[start : start + length], 1e-9, None).reshape(
                cpt.table.shape
            )
            cpt.normalize()
        return candidate

    def objective(flat: np.ndarray) -> float:
        candidate = unpack(flat)
        return -candidate.log_likelihood(sample)

    def constraint_violations(flat: np.ndarray) -> np.ndarray:
        candidate = unpack(flat)
        inference = ExactInference(candidate)
        violations = []
        for aggregate in aggregates:
            for values, count in aggregate.items():
                assignment = dict(zip(aggregate.attributes, values))
                probability = inference.probability_or_zero(assignment)
                violations.append(probability - count / population_size)
        return np.asarray(violations)

    # Imported here, not at module top (scipy costs ~40 MB per process), and
    # before the clock starts so the solve time excludes the import.
    from scipy import optimize

    start = time.perf_counter()
    result = optimize.minimize(
        objective,
        x0,
        method="SLSQP",
        bounds=[(1e-9, 1.0)] * x0.size,
        constraints=[{"type": "eq", "fun": constraint_violations}],
        options={"maxiter": max_iterations, "ftol": 1e-6},
    )
    elapsed = time.perf_counter() - start
    return unpack(result.x), elapsed


def _max_constraint_violation(
    network: BayesianNetwork, aggregates: AggregateSet, population_size: float
) -> float:
    inference = ExactInference(network)
    worst = 0.0
    for aggregate in aggregates:
        for values, count in aggregate.items():
            assignment = dict(zip(aggregate.attributes, values))
            probability = inference.probability_or_zero(assignment)
            worst = max(worst, abs(probability - count / population_size))
    return worst


def _tiny_population(seed: int) -> Relation:
    """A small 3-attribute correlated population keeping the naive solver feasible."""
    from ..schema import Attribute, Domain, Schema

    rng = np.random.default_rng(seed)
    n = 3000
    a = rng.choice(3, size=n, p=[0.5, 0.3, 0.2])
    b_table = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    b = np.array([rng.choice(3, p=b_table[value]) for value in a])
    c_table = np.array([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]])
    c = np.array([rng.choice(2, p=c_table[value]) for value in b])
    schema = Schema(
        [Attribute("A", Domain([0, 1, 2])), Attribute("B", Domain([0, 1, 2])), Attribute("C", Domain([0, 1]))]
    )
    return Relation(schema, {"A": a, "B": b, "C": c})


def run_simplification_ablation(
    scale: ExperimentScale = SMALL_SCALE,
    attributes: Sequence[str] = ("A", "B", "C"),
    sample_rows: int = 300,
) -> ExperimentResult:
    """Compare the simplified per-factor learner against the naive joint solver.

    A deliberately tiny 3-attribute population is used so the naive joint
    solver finishes at all; even at this scale it is orders of magnitude
    slower than the per-factor approach.
    """
    population = _tiny_population(seed=scale.seed + 97)
    rng = np.random.default_rng(scale.seed + 98)
    biased = np.where((population.column("A") == 0) | (rng.random(population.n_rows) < 0.1))[0]
    chosen = rng.choice(biased, size=min(sample_rows, biased.size), replace=False)
    sample = population.take(np.sort(chosen))
    aggregates = aggregates_from_population(
        population, [(attributes[0],), (attributes[1], attributes[2])]
    )
    population_size = float(population.n_rows)

    # A fixed small chain structure keeps the two solvers comparable.
    graph = DirectedAcyclicGraph(
        nodes=attributes,
        edges=[(attributes[0], attributes[1]), (attributes[1], attributes[2])],
    )

    result = ExperimentResult(
        experiment_id="ablation-simplification",
        title="Per-factor (Sec. 5.2) vs naive joint constrained parameter learning",
        paper_claim=(
            "Without the simplification, constrained learning is intractable (the "
            "paper's runs did not finish in 10 hours); with it, solving is fast and "
            "constraints are met as well or better."
        ),
        parameters={"attributes": list(attributes), "sample_rows": sample.n_rows},
    )

    start = time.perf_counter()
    simplified, _ = ParameterLearner(use_aggregates=True).learn(
        graph, sample.schema, sample, aggregates=aggregates, population_size=population_size
    )
    simplified_seconds = time.perf_counter() - start
    result.add_row(
        solver="per-factor (Sec. 5.2)",
        seconds=simplified_seconds,
        max_constraint_violation=_max_constraint_violation(
            simplified, aggregates, population_size
        ),
    )

    naive, naive_seconds = _naive_joint_solve(
        graph, sample, aggregates, population_size
    )
    result.add_row(
        solver="naive joint (Eq. 2)",
        seconds=naive_seconds,
        max_constraint_violation=_max_constraint_violation(
            naive, aggregates, population_size
        ),
    )
    return result
