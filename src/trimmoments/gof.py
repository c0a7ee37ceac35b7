"""Goodness-of-fit reporting and the hurricane-damage case study.

FIT is the mean absolute deviation between log fitted quantiles at the
plotting positions (j - 0.5)/n and the log order statistics.  AIC and
BIC use the model log-likelihood, the sum of `models.logpdf`, at the
supplied estimates; for trimmed-moment estimates this is a plug-in
pseudo-likelihood.

The bundled dataset holds the 30 largest US hurricane damages of
1925-95 in billions of dollars; the analysis pipeline rescales to
dollars before fitting, so lognormal locations land on the log-dollar
scale, and reports the Frechet scale in billions.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import fit
from .models import SPECS, Family, ParameterVector, logpdf, quantile
from .moments import TrimmingScheme

__all__ = [
    "GofReport",
    "fit_statistic",
    "log_likelihood",
    "information_criteria",
    "modify_dataset",
    "load_dataset",
    "gof_report",
    "DATA_SCALE",
]

# The bundled damages are stored in units of 1e9 dollars.
DATA_SCALE = 1.0e9


@dataclass(frozen=True)
class GofReport:
    family: Family
    label: str
    params: ParameterVector
    fit: float
    aic: float
    bic: float
    n: int
    tag: str = "original"


def fit_statistic(family: Family, params: ParameterVector, data) -> float:
    """Mean absolute log-quantile deviation at positions (j - 0.5)/n."""
    x = np.sort(np.asarray(data, dtype=float))
    if x.size < 1:
        raise ValueError("data must be nonempty")
    if np.any(x <= 0.0):
        raise ValueError("data must be positive (log scale comparison)")
    n = x.size
    u = (np.arange(1, n + 1) - 0.5) / n
    q = quantile(family, params, u)
    return float(np.mean(np.abs(np.log(q) - np.log(x))))


def log_likelihood(family: Family, params: ParameterVector, data) -> float:
    return float(np.sum(logpdf(family, params, data)))


def information_criteria(family: Family, params: ParameterVector, data,
                         k: int = 2):
    """(AIC, BIC) at the supplied estimates (plug-in likelihood)."""
    n = len(np.asarray(data))
    ll = log_likelihood(family, params, data)
    return 2.0 * k - 2.0 * ll, k * math.log(n) - 2.0 * ll


def modify_dataset(data, factor: float = 10.0):
    """Copy of the data with the maximum multiplied by factor."""
    x = np.asarray(data, dtype=float).copy()
    if x.size == 0:
        raise ValueError("data must be nonempty")
    x[np.argmax(x)] *= factor
    return x


def load_dataset(path: Optional[str] = None) -> np.ndarray:
    """Load a one-column damages CSV (billions); default is bundled."""
    if path is None:
        ref = importlib.resources.files("trimmoments.data") / "hurricane.csv"
        text = ref.read_text()
    else:
        with open(path, "r", newline="") as fh:
            text = fh.read()
    values = []
    for row in csv.reader(text.splitlines()):
        if not row:
            continue
        try:
            values.append(float(row[0]))
        except ValueError:
            continue  # header line
    if not values:
        raise ValueError("no numeric values found in dataset")
    return np.asarray(values, dtype=float)


def _report(family, label, params, data, tag):
    fit = fit_statistic(family, params, data)
    aic, bic = information_criteria(family, params, data)
    return GofReport(family, label, params, fit, aic, bic, len(data), tag)


def gof_report(family: Family, data, scheme: Optional[TrimmingScheme] = None,
               tag: str = "original") -> GofReport:
    """Fit the model (MLE when scheme is None, otherwise the trimmed
    estimator) and report FIT/AIC/BIC.  data is in dollars."""
    if family is Family.NORMAL:
        raise ValueError("the case study fits lognormal or Frechet models")
    x = np.asarray(data, dtype=float)
    if scheme is None:
        params, label = SPECS[family].mle(x), "MLE"
    else:
        params, label = fit(x, scheme, family).params, scheme.label()
    return _report(family, label, params, x, tag)
