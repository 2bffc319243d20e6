"""Sample reweighting techniques (Sec. 4.1).

Three reweighters share one interface: the default-AQP uniform baseline,
the constrained linear-regression technique, and Iterative Proportional
Fitting.
"""

from .base import Reweighter, ReweightingResult
from .ipf import IPFReweighter
from .linreg import LinearRegressionReweighter
from .uniform import UniformReweighter

__all__ = [
    "IPFReweighter",
    "LinearRegressionReweighter",
    "Reweighter",
    "ReweightingResult",
    "UniformReweighter",
]
