"""Themis: sample debiasing for open-world query processing.

A from-scratch reproduction of *Sample Debiasing in the Themis Open World
Database System* (SIGMOD 2020).  The top-level package re-exports the most
commonly used pieces of the public API; subpackages hold the substrates:

* :mod:`repro.schema` — attributes, domains, relations, one-hot encodings;
* :mod:`repro.aggregates` — population aggregates ``Γ``, incidence systems,
  information-theoretic pruning;
* :mod:`repro.reweighting` — uniform / Horvitz-Thompson / LinReg / IPF
  sample reweighters;
* :mod:`repro.bayesnet` — Bayesian networks, structure and constrained
  parameter learning, exact inference, forward sampling;
* :mod:`repro.sql` and :mod:`repro.query` — the weighted SQL substrate;
* :mod:`repro.core` — the Themis facade and the hybrid open-world evaluator;
* :mod:`repro.baselines` — AQP and the reuse baseline of Galakatos et al.;
* :mod:`repro.data` — synthetic Flights / IMDB / CHILD populations and the
  paper's biased samples;
* :mod:`repro.metrics` and :mod:`repro.experiments` — the evaluation harness;
* :mod:`repro.obs` — structured tracing (span trees, EXPLAIN ANALYZE) and
  the metrics registry every serving counter lives in.
"""

from .aggregates import AggregateQuery, AggregateSet, prune_aggregates
from .bayesnet import (
    BatchedInference,
    BayesianNetwork,
    ExactInference,
    ForwardSampler,
    LearningMode,
    ThemisBayesNetLearner,
    group_by_signature,
    signature_of,
)
from .core import (
    BayesNetEvaluator,
    ExplainedResult,
    HybridEvaluator,
    ReweightedSampleEvaluator,
    Themis,
    ThemisConfig,
    ThemisModel,
)
from .exceptions import ThemisError
from .metrics import percent_difference
from .obs import MetricsRegistry, Span, Tracer
from .plan import ColumnarExecutor, LogicalPlan, MaskCache, PlanCompiler
from .query import GroupByQuery, PointQuery, Predicate, ScalarAggregateQuery
from .reweighting import (
    HorvitzThompsonReweighter,
    IPFReweighter,
    LinearRegressionReweighter,
    UniformReweighter,
)
from .schema import Attribute, Domain, Relation, Schema
from .serving import (
    BatchExecutor,
    BatchResult,
    ServingSession,
)
from .sql import parse_sql

__version__ = "1.0.0"

__all__ = [
    "AggregateQuery",
    "AggregateSet",
    "Attribute",
    "BatchExecutor",
    "BatchResult",
    "BatchedInference",
    "BayesNetEvaluator",
    "BayesianNetwork",
    "ColumnarExecutor",
    "Domain",
    "ExactInference",
    "ExplainedResult",
    "ForwardSampler",
    "GroupByQuery",
    "HorvitzThompsonReweighter",
    "HybridEvaluator",
    "IPFReweighter",
    "LearningMode",
    "LinearRegressionReweighter",
    "LogicalPlan",
    "MaskCache",
    "MetricsRegistry",
    "PlanCompiler",
    "PointQuery",
    "Predicate",
    "Relation",
    "ReweightedSampleEvaluator",
    "ScalarAggregateQuery",
    "Schema",
    "ServingSession",
    "Span",
    "Themis",
    "Tracer",
    "ThemisBayesNetLearner",
    "ThemisConfig",
    "ThemisError",
    "ThemisModel",
    "UniformReweighter",
    "__version__",
    "group_by_signature",
    "parse_sql",
    "percent_difference",
    "prune_aggregates",
    "signature_of",
]
