"""Method of trimmed moments estimation with per-moment trimming.

Closed-form trimmed-moment estimators for normal, lognormal and
Frechet models, their asymptotic covariances and relative
efficiencies, a Monte Carlo study harness and goodness-of-fit
reporting, with a command line front end (``trimmoments``).
"""

from .families import Family, ParameterVector
from .moments import (
    MomentConstants,
    SchemeError,
    SchemeTag,
    TrimmingScheme,
    validate_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "Family",
    "ParameterVector",
    "MomentConstants",
    "SchemeError",
    "SchemeTag",
    "TrimmingScheme",
    "validate_scheme",
    "__version__",
]
