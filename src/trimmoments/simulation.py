"""Monte Carlo study harness: mean ratios and finite-sample relative
efficiency of the trimmed estimators versus maximum likelihood.

Each outer repetition draws a batch of samples; every estimator in the
study is fitted to the same samples.  Mean estimate/truth ratios and
the finite-sample RE are computed per repetition and then averaged,
with standard deviations across repetitions reported alongside.
Per-replicate RNG streams are derived from (seed, repetition,
replicate), so results are reproducible and independent of any
parallel execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .asymptotics import s_mle
from .estimators import EstimationError, fit
from .models import SPECS, Family, ParameterVector, sample
from .moments import TrimmingScheme, eta_constants

__all__ = ["StudyConfig", "SchemeSummary", "StudyResult", "finite_re",
           "run_study", "MLE_LABEL"]

MLE_LABEL = "MLE"


@dataclass(frozen=True)
class StudyConfig:
    family: Family
    params: ParameterVector
    n: int
    schemes: Sequence[TrimmingScheme]
    replicates: int = 2000
    repetitions: int = 3
    seed: int = 0
    include_mle: bool = True
    max_failure_rate: float = 0.01

    def validate(self):
        self.params.validate(self.family)
        if self.n < 20:
            raise ValueError("n must be >= 20")
        if self.replicates < 100:
            raise ValueError("replicates must be >= 100")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class SchemeSummary:
    """Per-estimator summary across outer repetitions."""

    label: str
    mean_ratio_1: float
    mean_ratio_2: float
    re: float
    sd_ratio_1: float
    sd_ratio_2: float
    sd_re: float
    failures: int


@dataclass
class StudyResult:
    config: StudyConfig
    rows: List[SchemeSummary] = field(default_factory=list)

    def row(self, label: str) -> SchemeSummary:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def finite_re(family: Family, params: ParameterVector, estimates, n: int) -> float:
    """Finite-sample relative efficiency of one batch of estimates.

    The numerator is the asymptotic per-observation MLE spread
    det(S_MLE)^(1/2); the denominator is the determinant of the
    empirical cross-moment matrix of the estimation errors, to the same
    power, scaled by n so that the MLE itself scores about 1.
    """
    est = np.asarray(estimates, dtype=float)
    if est.ndim != 2 or est.shape[0] < 2 or est.shape[1] != 2:
        raise ValueError("estimates must be an (m, 2) array with m >= 2")
    diff = est - np.array(SPECS[family].estimates(params))
    m = diff.T @ diff / diff.shape[0]
    det = float(np.linalg.det(m))
    if det <= 0.0:
        raise ValueError("empirical cross-moment matrix is singular")
    det_mle = float(np.linalg.det(s_mle(family, params)))
    return math.sqrt(det_mle) / (n * math.sqrt(det))


def run_study(config: StudyConfig) -> StudyResult:
    """Run the full Monte Carlo study described by config."""
    config.validate()
    family = config.family
    params = config.params
    spec = SPECS[family]
    truth = np.array(spec.estimates(params))
    constants = [eta_constants(family, s) for s in config.schemes]

    labels = ([MLE_LABEL] if config.include_mle else []) \
        + [s.label() for s in config.schemes]
    nlab = len(labels)
    ratio_reps = np.full((config.repetitions, nlab, 2), np.nan)
    re_reps = np.full((config.repetitions, nlab), np.nan)
    failures = np.zeros(nlab, dtype=int)

    for rep in range(config.repetitions):
        batches = [[] for _ in range(nlab)]
        for k in range(config.replicates):
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, rep, k)))
            x = sample(family, params, config.n, rng)
            mle = spec.mle(x)
            offset = 0
            if config.include_mle:
                batches[0].append(spec.estimates(mle))
                offset = 1
            for idx, (scheme, con) in enumerate(zip(config.schemes, constants)):
                try:
                    est = fit(x, scheme, family, con, mle).params
                except EstimationError:
                    failures[offset + idx] += 1
                    continue
                batches[offset + idx].append(spec.estimates(est))
        for idx, batch in enumerate(batches):
            arr = np.asarray(batch, dtype=float)
            if arr.shape[0] < 2:
                continue
            ratio_reps[rep, idx] = np.mean(arr / truth, axis=0)
            re_reps[rep, idx] = finite_re(family, params, arr, config.n)

    total = config.replicates * config.repetitions
    result = StudyResult(config)
    for idx, label in enumerate(labels):
        frate = failures[idx] / total
        if frate > config.max_failure_rate:
            raise EstimationError(
                f"estimator {label} failed on {100.0 * frate:.1f}% of "
                f"replicates (limit {100.0 * config.max_failure_rate:.1f}%); "
                "update trimming proportions"
            )
        result.rows.append(SchemeSummary(
            label=label,
            mean_ratio_1=float(np.nanmean(ratio_reps[:, idx, 0])),
            mean_ratio_2=float(np.nanmean(ratio_reps[:, idx, 1])),
            re=float(np.nanmean(re_reps[:, idx])),
            sd_ratio_1=float(np.nanstd(ratio_reps[:, idx, 0])),
            sd_ratio_2=float(np.nanstd(ratio_reps[:, idx, 1])),
            sd_re=float(np.nanstd(re_reps[:, idx])),
            failures=int(failures[idx]),
        ))
    return result
