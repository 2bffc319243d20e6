"""Bayesian-network parameter learning with aggregate constraints.

Standard maximum-likelihood parameter learning only uses the sample.  Themis
additionally enforces that the learned distribution reproduces the population
aggregates (Sec. 4.2.3).  The naive formulation couples every factor through
non-linear constraints; the simplification of Sec. 5.2 makes it tractable:

* only aggregate constraints that act on a single factor — i.e. aggregates
  over a child and (a subset of) its parents — are added, and
* factors are solved in topological order, so when a node is solved all its
  ancestors are known constants and each constraint becomes *linear* in the
  node's own parameters.

This module implements both the plain sample MLE (the ``S`` parameter mode)
and the constrained per-factor fit (the ``B`` mode).  A constrained factor is
fitted on one path:

1. start from the smoothed sample MLE;
2. if an aggregate covers the whole family it pins ``Pr(node, parents)``, so
   the rows it has mass for follow in closed form (the "direct equality
   constraints" of Sec. 6.9);
3. the remaining aggregates are met by *iterative scaling*: sweep over the
   linear constraints, multiply the cells of each by ``target / achieved``
   (one aggregate's groups at a time), renormalize the rows, repeat until
   no scale moves by more than ``1e-8`` (or 50 sweeps).  This is IPF on the
   factor — the I-projection of the sample estimate onto the constraint
   set, i.e. the closest distribution in KL divergence that reproduces the
   aggregates.  How far it got is reported
   per node in :class:`ParameterLearningReport`.

There is deliberately no general constrained-likelihood solver in front of
step 3.  One used to run (``scipy.optimize.minimize(method="SLSQP")`` on
factors of up to 1,500 cells) with the projection as its fallback.  Logged
over one full tier-1 run it was called 695 times: 563 calls failed (``status
4, inequality constraints incompatible`` — the row-normalization equations
plus a complete marginal over the child are linearly dependent, and
scipy's LSQ sub-problem gives up on the rank-deficient Jacobian) and cost
246 s of the 314 s run before the projection answered anyway; 132 succeeded in
0.58 s, none on a factor of more than 96 cells, and all of those were
rank-deficient too, so rank did not predict which.  On the three ``bench``
datasets every factor failed: 70-85% of ``fit()`` computed nothing.  Where it
did succeed it walked off the closed form of step 2 towards the sample
likelihood (IMDB ``movie_country | movie_year``: 9.1e-6 away from the
population conditional the full-family aggregate states; now <= 1.2e-16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..aggregates import AggregateQuery, AggregateSet
from ..exceptions import BayesNetError
from ..schema import Relation, Schema
from .cpt import ConditionalProbabilityTable, normalize_rows
from .dag import DirectedAcyclicGraph
from .inference import ExactInference
from .network import BayesianNetwork


@dataclass
class ParameterLearningReport:
    """Diagnostics of one parameter-learning run.

    ``projection_sweeps`` and ``projection_gaps`` have one entry per
    constrained node: the iterative-scaling sweeps used (0 when a full-family
    aggregate left nothing to project onto) and the largest relative gap
    ``|target / achieved - 1|`` the returned factor leaves on any of its
    linear constraints (``inf`` when a constraint with a positive target has
    no mass it could scale).
    """

    constrained_nodes: list[str] = field(default_factory=list)
    closed_form_nodes: list[str] = field(default_factory=list)
    projection_sweeps: dict[str, int] = field(default_factory=dict)
    projection_gaps: dict[str, float] = field(default_factory=dict)


class ParameterLearner:
    """Learn CPTs for a fixed structure from a sample and (optionally) ``Γ``.

    Parameters
    ----------
    smoothing:
        Dirichlet pseudo-count added to the sample counts so parent
        configurations unseen in the sample stay well-defined.
    use_aggregates:
        When false, plain (smoothed) maximum likelihood from the sample is
        used — the ``S`` parameter-learning mode of the evaluation.
    """

    def __init__(self, smoothing: float = 0.1, use_aggregates: bool = True):
        if smoothing < 0:
            raise BayesNetError("smoothing must be non-negative")
        self.smoothing = float(smoothing)
        self.use_aggregates = bool(use_aggregates)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def learn(
        self,
        graph: DirectedAcyclicGraph,
        schema: Schema,
        sample: Relation,
        aggregates: AggregateSet | None = None,
        population_size: float | None = None,
    ) -> tuple[BayesianNetwork, ParameterLearningReport]:
        """Learn all CPTs and return the parameterized network plus a report."""
        network = BayesianNetwork(schema, graph.copy())
        report = ParameterLearningReport()
        aggregates = aggregates if aggregates is not None else AggregateSet()
        if population_size is None:
            population_size = aggregates.population_size() or float(sample.n_rows)

        for node in network.topological_order():
            parents = network.parents(node)
            counts = ConditionalProbabilityTable.counts_from_relation(
                sample, node, parents, weighted=False
            )
            family_constraints = (
                self._single_factor_constraints(node, parents, aggregates)
                if self.use_aggregates
                else []
            )
            if not family_constraints:
                cpt = ConditionalProbabilityTable.from_counts(
                    node,
                    parents,
                    schema[node].size,
                    [schema[name].size for name in parents],
                    counts,
                    smoothing=self.smoothing,
                )
                network.set_cpt(cpt)
                continue

            report.constrained_nodes.append(node)
            parent_marginal = self._parent_marginal(network, parents)
            cpt = self._solve_constrained_factor(
                node=node,
                parents=parents,
                schema=schema,
                counts=counts,
                constraints=family_constraints,
                parent_marginal=parent_marginal,
                population_size=float(population_size),
                report=report,
            )
            network.set_cpt(cpt)
        return network, report

    # ------------------------------------------------------------------
    # Constraint discovery
    # ------------------------------------------------------------------
    @staticmethod
    def _single_factor_constraints(
        node: str, parents: tuple[str, ...], aggregates: AggregateSet
    ) -> list[AggregateQuery]:
        """Aggregates acting only on this factor: ``node ∈ γ ⊆ {node} ∪ parents``."""
        family = set(parents) | {node}
        selected = []
        for aggregate in aggregates:
            attributes = set(aggregate.attributes)
            if node in attributes and attributes <= family:
                selected.append(aggregate)
        return selected

    @staticmethod
    def _parent_marginal(
        network: BayesianNetwork, parents: tuple[str, ...]
    ) -> np.ndarray:
        """Joint distribution over parent configurations from solved ancestors.

        Returned as a flat vector in row-major parent-code order (matching
        :meth:`ConditionalProbabilityTable.config_index`).
        """
        if not parents:
            return np.ones(1, dtype=float)
        factor = ExactInference(network).joint_marginal(parents)
        return factor.table.reshape(-1)

    # ------------------------------------------------------------------
    # Constrained factor fitting
    # ------------------------------------------------------------------
    def _solve_constrained_factor(
        self,
        node: str,
        parents: tuple[str, ...],
        schema: Schema,
        counts: np.ndarray,
        constraints: list[AggregateQuery],
        parent_marginal: np.ndarray,
        population_size: float,
        report: ParameterLearningReport,
    ) -> ConditionalProbabilityTable:
        child_size = schema[node].size
        parent_sizes = [schema[name].size for name in parents]

        # Start from the smoothed sample MLE.
        theta = ConditionalProbabilityTable.from_counts(
            node, parents, child_size, parent_sizes, counts, smoothing=self.smoothing
        ).table

        # An aggregate over the full family pins the joint Pr(node, parents)
        # directly, so θ follows in closed form wherever it has mass.
        family = set(parents) | {node}
        full_family = next(
            (agg for agg in constraints if set(agg.attributes) == family), None
        )
        if full_family is not None:
            joint = ConditionalProbabilityTable.counts_from_aggregate(
                full_family, schema, node, parents
            ) / max(population_size, 1e-300)
            theta = normalize_rows(joint, fallback=theta)
            report.closed_form_nodes.append(node)

        blocks = [
            self._linear_constraints(
                [aggregate], node, parents, schema, parent_marginal, population_size
            )
            for aggregate in constraints
            if aggregate is not full_family
        ]
        theta, sweeps, gap = self._iterative_scaling(theta, blocks)
        report.projection_sweeps[node] = sweeps
        report.projection_gaps[node] = gap

        final = ConditionalProbabilityTable(
            node, parents, child_size, parent_sizes, table=np.clip(theta, 0.0, None)
        )
        final.normalize()
        return final

    @staticmethod
    def _linear_constraints(
        aggregates: list[AggregateQuery],
        node: str,
        parents: tuple[str, ...],
        schema: Schema,
        parent_marginal: np.ndarray,
        population_size: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Build the linear system ``A vec(θ) = b`` from partial-family aggregates.

        Each aggregate group over attributes ``T`` (with ``node ∈ T`` and
        ``T ⊆ family``) contributes one equation whose coefficients are the
        already-known parent-configuration probabilities.
        """
        child_size = schema[node].size
        n_configs = parent_marginal.size
        # Code of every parent in every parent configuration (row-major).
        parent_sizes = [schema[name].size for name in parents]
        config_codes = dict(
            zip(parents, np.indices(parent_sizes).reshape(len(parents), n_configs))
        )
        blocks = [np.zeros((0, n_configs * child_size))]
        targets = [np.zeros(0)]
        for aggregate in aggregates:
            codes = aggregate.encode(schema)
            known = (codes >= 0).all(axis=1)
            codes = codes[known]
            matches = np.ones((len(codes), n_configs), dtype=bool)
            for position, name in enumerate(aggregate.attributes):
                if name != node:
                    matches &= codes[:, position, None] == config_codes[name]
            block = np.zeros((len(codes), n_configs, child_size))
            child_codes = codes[:, aggregate.attributes.index(node)]
            block[np.arange(len(codes)), :, child_codes] = np.where(
                matches, parent_marginal, 0.0
            )
            blocks.append(block.reshape(len(codes), -1))
            targets.append(aggregate.counts()[known] / max(population_size, 1e-300))
        return np.vstack(blocks), np.concatenate(targets)

    @staticmethod
    def _iterative_scaling(
        theta0: np.ndarray,
        blocks: list[tuple[np.ndarray, np.ndarray]],
        n_sweeps: int = 50,
        tolerance: float = 1e-8,
    ) -> tuple[np.ndarray, int, float]:
        """Rescale θ entries per constraint, renormalize rows, repeat.

        ``blocks`` holds one ``(rows, targets)`` linear system per aggregate,
        as :meth:`_linear_constraints` builds it.  The groups of one
        aggregate differ in the code of at least one family attribute, so
        they constrain disjoint θ cells and rescaling one leaves every other
        group's achieved mass as it was: a sweep rescales a whole aggregate
        in one step (the aggregates still in order, one after the other),
        and the table is the one a constraint-at-a-time sweep leaves, bit
        for bit.  Each group's achieved mass stays its own ``row @ θ`` dot
        product: a mat-vec over the aggregate's rows would sum in another
        order and move the last bits.

        Returns the fitted table, the sweeps used and the largest relative
        gap the table leaves on any constraint.  Slightly inconsistent
        constraints end in a compromise and a gap that says so.
        """
        theta = np.array(theta0, dtype=float, copy=True)
        blocks = [(rows, targets) for rows, targets in blocks if rows.shape[0]]
        if not blocks:
            return theta, 0, 0.0
        steps = []
        for rows, targets in blocks:
            # The cells each group constrains, listed group by group.
            group, cell = np.nonzero(rows > 0)
            steps.append((rows, targets, targets > 0, group, cell))
        # A group with next to no mass overflows its scale to inf, as a
        # Python float division would, instead of warning.
        with np.errstate(over="ignore"):
            for sweeps in range(1, n_sweeps + 1):
                max_gap = 0.0
                for rows, targets, positive, group, cell in steps:
                    flat = theta.reshape(-1)
                    achieved = np.array([row @ flat for row in rows])
                    scaled = achieved > 0
                    scale = np.divide(targets, achieved, out=np.ones_like(achieved), where=scaled)
                    if scaled.any():
                        max_gap = max(max_gap, float(np.abs(scale[scaled] - 1.0).max()))
                    flat[cell] *= scale[group]
                    bump = positive & ~scaled
                    if bump.any():
                        # Give a positive-target group with no mass a small
                        # uniform mass so it can be approached next sweep.
                        bumped = cell[bump[group]]
                        flat[bumped] = np.maximum(flat[bumped], 1e-6)
                theta = normalize_rows(np.clip(theta, 0.0, None))
                if max_gap <= tolerance:
                    break
        constraint_rows = np.vstack([rows for rows, _ in blocks])
        constraint_targets = np.concatenate([targets for _, targets in blocks])
        achieved = constraint_rows @ theta.reshape(-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps = np.where(
                achieved > 0,
                np.abs(constraint_targets / achieved - 1.0),
                np.where(constraint_targets > 0, np.inf, 0.0),
            )
        return theta, sweeps, float(gaps.max())
