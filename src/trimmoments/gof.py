"""Goodness-of-fit reporting and the hurricane-damage case study.

A `GofReport` holds the fitted params, FIT, AIC and BIC.  FIT is the
mean absolute deviation between the fitted log-quantiles loc + scale *
base_quantile(u) at u = (j - 0.5)/n and the log order statistics.  AIC
and BIC use the log-likelihood, the sum of `models.logpdf` (plug-in for
trimmed-moment estimates); they are inf when a fitted density underflows.

The bundled dataset holds the 30 largest US hurricane damages of
1925-95 in billions of dollars; the analysis pipeline rescales to
dollars before fitting, so lognormal locations land on the log-dollar
scale, and reports the Frechet scale in billions.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from typing import NamedTuple, Optional

import numpy as np

from .estimators import fit
from .families import LAWS, Family, ParameterVector
from .models import SPECS, logpdf, transformed_quantile
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


class GofReport(NamedTuple):
    params: ParameterVector
    fit: float
    aic: float
    bic: float


def fit_statistic(family: Family, params: ParameterVector, data) -> float:
    """Mean absolute log-quantile deviation at positions (j - 0.5)/n."""
    x = np.sort(np.asarray(data, dtype=float))
    if x.size < 1:
        raise ValueError("data must be nonempty")
    if np.any(x <= 0.0):
        raise ValueError("data must be positive (log scale comparison)")
    u = (np.arange(1, x.size + 1) - 0.5) / x.size
    log_q = transformed_quantile(family, params, u)
    return float(np.mean(np.abs(log_q - np.log(x))))


def log_likelihood(family: Family, params: ParameterVector, data) -> float:
    with np.errstate(over="ignore"):
        return float(np.sum(logpdf(family, params, data)))


def information_criteria(family: Family, params: ParameterVector, data):
    """(AIC, BIC) at the supplied estimates (plug-in likelihood)."""
    k = len(LAWS[family].names)
    n = len(np.asarray(data))
    ll = log_likelihood(family, params, data)
    return 2.0 * k - 2.0 * ll, k * math.log(n) - 2.0 * ll


def modify_dataset(data):
    """Copy of the data with the maximum multiplied by 10, if finite."""
    x = np.asarray(data, dtype=float).copy()
    if x.size == 0:
        raise ValueError("data must be nonempty")
    top = np.argmax(x)
    x[top] = float(x[top]) * 10.0
    if not math.isfinite(x[top]):
        raise ValueError("the modified maximum (10 times the largest "
                         "value) overflows")
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
    if not all(map(math.isfinite, values)):
        raise ValueError("dataset holds a non-finite value")
    return np.asarray(values, dtype=float)


def gof_report(family: Family, data,
               scheme: Optional[TrimmingScheme] = None) -> GofReport:
    """Fit the model (MLE when scheme is None, otherwise the trimmed
    estimator) and report FIT/AIC/BIC.  data is in dollars.  The case
    study compares lognormal and Frechet fits, so Family.NORMAL raises
    ValueError."""
    if family is Family.NORMAL:
        raise ValueError("the case study fits lognormal or Frechet models")
    x = np.asarray(data, dtype=float)
    if scheme is None:
        params = SPECS[family].mle(x)
    else:
        params = fit(x, scheme, family).params
    return GofReport(params, fit_statistic(family, params, x),
                     *information_criteria(family, params, x))
