"""Goodness-of-fit reporting and the hurricane-damage case study.

A `GofReport` holds the fitted params, FIT, AIC and BIC, all read from
the family's `models.FamilySpec` on the log data y = log x.  FIT is the
mean absolute deviation between the fitted log-quantiles loc + scale *
G(u), G the law's base quantile at each u = (j - 0.5)/n, and the
sorted y.  AIC and BIC use the log-likelihood, the sum over the data of
the base log-density at (y - loc) / scale, less log scale, plus the
log-Jacobian (plug-in for trimmed-moment estimates); they are inf when
a fitted density underflows.

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
from .families import Family, ParameterVector
from .models import SPECS
from .moments import TrimmingScheme

__all__ = [
    "GofReport",
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
    spec = SPECS[family]
    x = np.asarray(data, dtype=float)
    if scheme is None:
        params = spec.mle(x)
    else:
        params = fit(x, scheme, family).params
    y = spec.transform(x)
    loc, scale = spec.law.location_scale(params)
    n = y.size
    q = np.array([spec.law.base((j - 0.5) / n) for j in range(1, n + 1)])
    fit_value = float(np.mean(np.abs(loc + scale * q - np.sort(y))))
    with np.errstate(over="ignore"):
        ll = float(np.sum(spec.base_logpdf((y - loc) / scale)
                          - math.log(scale) + spec.log_jacobian(y)))
    k = len(spec.law.names)
    return GofReport(params, fit_value, 2.0 * k - 2.0 * ll,
                     k * math.log(n) - 2.0 * ll)
