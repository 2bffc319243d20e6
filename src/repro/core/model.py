"""The fitted Themis model ``M(Γ, S)``.

A :class:`ThemisModel` bundles everything ``Themis.fit()`` produces: the
reweighted sample, the learned Bayesian network, the evaluators built on top
of them, the planner that routes against them, and the diagnostics of each
learning stage.  It is what queries are answered against (Sec. 3's
``Q(M(Γ, S)) ≈ Q(P)``).

A model is one immutable snapshot.  Its caches (predicate masks, join
sides, the compile memo, eliminated factors) hold values of this fit only
and are never invalidated: a refit builds a new model and the facade swaps
one reference.  A serving session's routed plans are not the model's:
they depend on the sample alone and outlive a refit of it.  Nothing the model owns points back at the model or at the
facade, so a dropped model is freed by reference counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..aggregates import AggregateSet
from ..bayesnet import BayesNetLearningResult, BayesianNetwork
from ..reweighting import ReweightingResult
from ..schema import Relation
from .evaluators import (
    BayesNetEvaluator,
    HybridEvaluator,
    OpenWorldEvaluator,
    ReweightedSampleEvaluator,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..serving.planner import QueryPlanner


@dataclass(frozen=True, eq=False)
class ThemisModel:
    """Everything produced by fitting Themis to a sample and aggregates.

    ``generation`` is the snapshot's id: the facade's counter at the fit
    that built it.
    """

    generation: int
    sample: Relation
    weighted_sample: Relation
    aggregates: AggregateSet
    population_size: float
    reweighting_result: ReweightingResult
    bayes_net_result: BayesNetLearningResult
    hybrid_evaluator: HybridEvaluator
    sample_evaluator: ReweightedSampleEvaluator
    bayes_net_evaluator: BayesNetEvaluator
    planner: "QueryPlanner"
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def network(self) -> BayesianNetwork:
        """The learned Bayesian network."""
        return self.bayes_net_result.network

    def evaluator(self, kind: str = "hybrid") -> OpenWorldEvaluator:
        """Fetch one of the fitted evaluators.

        ``kind`` is ``"hybrid"`` (Themis's default), ``"sample"`` (reweighted
        sample only), or ``"bayes-net"`` (probabilistic model only).
        """
        evaluators = {
            "hybrid": self.hybrid_evaluator,
            "sample": self.sample_evaluator,
            "bayes-net": self.bayes_net_evaluator,
            "bn": self.bayes_net_evaluator,
        }
        if kind not in evaluators:
            raise KeyError(
                f"unknown evaluator kind {kind!r}; expected one of "
                f"{sorted(set(evaluators))}"
            )
        return evaluators[kind]

    def summary(self) -> dict[str, object]:
        """A small, printable summary of the fitted model."""
        return {
            "sample_rows": self.sample.n_rows,
            "population_size": self.population_size,
            "n_aggregates": len(self.aggregates),
            "n_constraints": self.aggregates.n_constraints(),
            "reweighter": self.reweighting_result.method,
            "reweighter_converged": self.reweighting_result.converged,
            "bn_edges": list(self.network.graph.edges),
            "bn_mode": getattr(self.bayes_net_result.mode, "value", None),
            "timings": dict(self.timings),
        }
