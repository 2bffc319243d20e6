"""High-level Bayesian-network learning modes (SS, SB, BS, AB, BB).

The evaluation (Sec. 6.6, Fig. 13) compares five ways of combining the
sample ``S`` and the aggregates ``Γ``:

* the first letter selects the *structure* source — ``S`` (sample only),
  ``B`` (both: the two-phase hill climber), or ``A`` (aggregates only, with
  uncovered attributes left as disconnected, uniformly distributed nodes);
* the second letter selects the *parameter* source — ``S`` (sample MLE) or
  ``B`` (sample likelihood with aggregate constraints).

:class:`ThemisBayesNetLearner` exposes these combinations behind one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..aggregates import AggregateSet
from ..exceptions import BayesNetError
from ..schema import Relation, Schema
from .network import BayesianNetwork
from .parameters import ParameterLearner, ParameterLearningReport
from .structure import GreedyHillClimbing, StructureLearningReport


class StructureSource(str, Enum):
    """Where structure-learning information comes from."""

    SAMPLE = "sample"
    AGGREGATES = "aggregates"
    BOTH = "both"


class ParameterSource(str, Enum):
    """Where parameter-learning information comes from."""

    SAMPLE = "sample"
    BOTH = "both"


class LearningMode(str, Enum):
    """The five learning modes evaluated in the paper (Fig. 13)."""

    SS = "SS"
    SB = "SB"
    BS = "BS"
    AB = "AB"
    BB = "BB"

    @property
    def structure_source(self) -> StructureSource:
        mapping = {
            "S": StructureSource.SAMPLE,
            "B": StructureSource.BOTH,
            "A": StructureSource.AGGREGATES,
        }
        return mapping[self.value[0]]

    @property
    def parameter_source(self) -> ParameterSource:
        mapping = {"S": ParameterSource.SAMPLE, "B": ParameterSource.BOTH}
        return mapping[self.value[1]]


@dataclass
class BayesNetLearningResult:
    """A learned network plus the diagnostics of both learning stages."""

    network: BayesianNetwork
    structure_report: StructureLearningReport
    parameter_report: ParameterLearningReport
    mode: LearningMode | None = None


class ThemisBayesNetLearner:
    """Learn a Bayesian network from a biased sample and population aggregates.

    Parameters
    ----------
    structure_source, parameter_source:
        Which inputs each learning stage uses; see :class:`LearningMode`.
    max_parents:
        Parent limit for structure learning (1 keeps networks tree-shaped, as
        in the paper's evaluation).
    smoothing:
        Dirichlet pseudo-count used by parameter learning.
    """

    def __init__(
        self,
        structure_source: StructureSource | str = StructureSource.BOTH,
        parameter_source: ParameterSource | str = ParameterSource.BOTH,
        max_parents: int = 1,
        smoothing: float = 0.1,
    ):
        self.structure_source = StructureSource(structure_source)
        self.parameter_source = ParameterSource(parameter_source)
        self.max_parents = int(max_parents)
        self.smoothing = float(smoothing)

    @classmethod
    def from_mode(
        cls, mode: LearningMode | str, max_parents: int = 1, smoothing: float = 0.1
    ) -> "ThemisBayesNetLearner":
        """Build a learner configured for one of the paper's five modes."""
        mode = LearningMode(mode)
        return cls(
            structure_source=mode.structure_source,
            parameter_source=mode.parameter_source,
            max_parents=max_parents,
            smoothing=smoothing,
        )

    def learn(
        self,
        sample: Relation,
        aggregates: AggregateSet | None = None,
        schema: Schema | None = None,
        population_size: float | None = None,
    ) -> BayesNetLearningResult:
        """Learn structure and parameters and return the resulting network."""
        if sample.n_rows == 0:
            raise BayesNetError("cannot learn a Bayesian network from an empty sample")
        schema = schema if schema is not None else sample.schema
        aggregates = aggregates if aggregates is not None else AggregateSet()

        use_aggregate_phase = self.structure_source in (
            StructureSource.AGGREGATES,
            StructureSource.BOTH,
        )
        use_sample_phase = self.structure_source in (
            StructureSource.SAMPLE,
            StructureSource.BOTH,
        )
        climber = GreedyHillClimbing(max_parents=self.max_parents)
        graph, structure_report = climber.learn(
            schema,
            sample if use_sample_phase else None,
            aggregates if use_aggregate_phase else None,
            use_aggregate_phase=use_aggregate_phase,
            use_sample_phase=use_sample_phase,
        )

        parameter_learner = ParameterLearner(
            smoothing=self.smoothing,
            use_aggregates=self.parameter_source is ParameterSource.BOTH,
        )
        network, parameter_report = parameter_learner.learn(
            graph,
            schema,
            sample,
            aggregates=aggregates,
            population_size=population_size,
        )
        mode = self._mode_name()
        return BayesNetLearningResult(
            network=network,
            structure_report=structure_report,
            parameter_report=parameter_report,
            mode=mode,
        )

    def _mode_name(self) -> LearningMode | None:
        structure_letter = {
            StructureSource.SAMPLE: "S",
            StructureSource.BOTH: "B",
            StructureSource.AGGREGATES: "A",
        }[self.structure_source]
        parameter_letter = {
            ParameterSource.SAMPLE: "S",
            ParameterSource.BOTH: "B",
        }[self.parameter_source]
        try:
            return LearningMode(structure_letter + parameter_letter)
        except ValueError:
            return None
