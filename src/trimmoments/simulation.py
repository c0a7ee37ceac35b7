"""Monte Carlo study harness: mean ratios and finite-sample relative
efficiency of the trimmed estimators versus maximum likelihood.

Each outer repetition draws a batch of samples; every estimator in the
study is fitted to the same samples.  Replicate k of repetition r draws
its uniforms from its own stream, numpy's
default_rng(SeedSequence((seed, r, k))), so results are reproducible and
do not depend on how replicates are grouped.  The streams of a block are
not built one SeedSequence at a time: their PCG64 states are derived
together in uint64 array arithmetic that reproduces numpy's seeding bit
for bit (`_pcg64_states`), and one reused generator draws each row.
A repetition is worked in two parts.  Everything that reads the n
values of a replicate runs per block of at most BLOCK_ELEMENTS values: a
block is drawn directly on the transformed scale the estimators fit,
y = loc + scale * base_quantile(u), transformed in its uniforms buffer
(`FamilySpec.draw`), gets its reference MLE (`FamilySpec.mle_rows`, in
its workspace) on the rows as drawn, is sorted once and squared once,
and one `estimators.row_moments` call gives every scheme's t1 and t2 of
its rows, from sums of the block and squares over the segments between
the schemes' cuts, formed once.  The uniforms buffer and the workspace
are allocated once per study; every block reuses them, a shorter last
block their leading rows.  Everything that works per replicate and
scheme runs once per repetition, on all its replicates: one
`estimators.solve_rows` pass solves each scheme's scale from the kept
moments, and the estimates, ratios and RE of each estimator follow.  A
replicate whose fit fails, whose fitted parameters overflow, or whose
MLE fails where the MLE row or a proximity rule needs it, counts in
that estimator's failures and is left out of its ratios and RE (a
constant replicate fails every estimator, the MLE too); a singular RE
leaves that repetition's RE NaN.  Mean ratios and REs are computed per
repetition and averaged, with standard deviations across repetitions
alongside; a true parameter so small that the ratios estimate / truth
overflow puts the study out of range.  The `StudyResult` is built once,
from the finished rows.
"""

from __future__ import annotations

import itertools
import math
from typing import List, NamedTuple, Sequence

import numpy as np

from .asymptotics import det2, s_mle
from .estimators import row_moments, solve_rows, squares_overflow
from .families import LAWS, EstimationError, Family, ParameterVector
from .models import SPECS
from .moments import MAX_SIZE, TrimmingScheme

__all__ = ["StudyConfig", "SchemeSummary", "StudyResult", "finite_re",
           "run_study", "MLE_LABEL"]

MLE_LABEL = "MLE"

# Values per block of replicates (rows x n: 1310 x 100, 131 x 1000).  A
# study holds three blocks (the uniforms and the MLE's two-half
# workspace), and the Frechet MLE a fourth at most, whatever its size.  A
# repetition's arrays grow with its replicates: 16 bytes each for every
# scheme's t1, t2 and for the MLE are kept, and the solve and estimates
# of one estimator take up to about 155 more: about 365 bytes a
# replicate with 12 schemes, 365 MB at MAX_SIZE replicates.
BLOCK_ELEMENTS = 2 ** 17

# Largest share of replicates an estimator may fail on.
MAX_FAILURE_RATE = 0.01


class StudyConfig(NamedTuple):
    family: Family
    params: ParameterVector
    n: int
    schemes: Sequence[TrimmingScheme]
    replicates: int = 2000
    repetitions: int = 3
    seed: int = 0

    def validate(self):
        s_mle(self.family, self.params)  # validates params, rejects overflow
        if not 20 <= self.n <= MAX_SIZE:
            raise ValueError(f"n must be in [20, {MAX_SIZE}]")
        if not 100 <= self.replicates <= MAX_SIZE:
            raise ValueError(f"replicates must be in [100, {MAX_SIZE}]")
        if not 1 <= self.repetitions <= MAX_SIZE:
            raise ValueError(f"repetitions must be in [1, {MAX_SIZE}]")
        # u = 0 and 1 are clipped to the draw's extremes.
        if squares_overflow(SPECS[self.family].draw(
                self.params, np.array([0.0, 1.0])), self.n):
            raise ValueError("parameters out of range: squares of draws overflow")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if 0.0 in LAWS[self.family].estimates(self.params):
            raise ValueError("true parameters must be nonzero: the study "
                             "reports estimate/truth ratios")


class SchemeSummary(NamedTuple):
    """Per-estimator summary across outer repetitions."""

    label: str
    mean_ratio_1: float
    mean_ratio_2: float
    re: float
    sd_ratio_1: float
    sd_ratio_2: float
    sd_re: float
    failures: int


class StudyResult(NamedTuple):
    config: StudyConfig
    rows: List[SchemeSummary]

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
    power, scaled by n so that the MLE itself scores about 1.  Both scale
    each parameter by its MLE standard deviation, which keeps the squares
    in range and leaves the ratio unchanged.
    """
    est = np.asarray(estimates, dtype=float)
    if est.ndim != 2 or est.shape[0] < 2 or est.shape[1] != 2:
        raise ValueError("estimates must be an (m, 2) array with m >= 2")
    cov = s_mle(family, params)
    sd = np.sqrt(np.diag(cov))
    z = (est - np.array(LAWS[family].estimates(params))) / sd
    try:
        with np.errstate(over="raise"):
            det = det2(z.T @ z / z.shape[0])
    except FloatingPointError:
        det = 0.0  # squared errors past the float range: as singular
    if det <= 0.0:
        raise ValueError("empirical cross-moment matrix is singular")
    return math.sqrt(det2(cov / np.outer(sd, sd))) / (n * math.sqrt(det))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1
_POOL_SIZE = 4


def _words(value: int) -> list:
    """The little-endian 32-bit words SeedSequence splits an int into."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix: hash 32-bit words (ints or uint64 arrays)
    with a hash constant that is multiplied by mult on every call."""
    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * mult & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _pcg64_states(seed: int, rep: int, ks):
    """The PCG64 (state, inc) of default_rng(SeedSequence((seed, rep, k)))
    for each k of the uint64 array ks, as Python ints.

    SeedSequence's pool mix and generate_state(4, uint64) run on uint64
    arrays of 32-bit words, one element per k.  The entropy is the words
    of seed, rep and k; a k below 2**32 has no high word, and its zero
    there stands for numpy's zero padding inside the pool (seed and rep
    give at least two words) and is skipped beyond it.
    """
    prefix = _words(seed) + _words(rep)
    high = ks >> 32
    length = len(prefix) + 1 + (high > 0)
    entropy = [np.full(ks.shape, w, np.uint64) for w in prefix]
    entropy += [ks & _MASK32, high]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for i in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            mixed = _mix(pool[dst], hashmix(entropy[i]))
            pool[dst] = np.where(i < length, mixed, pool[dst])
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    for s0, s1, s2, s3 in zip(*(
            (words[2 * j] | words[2 * j + 1] << 32).tolist() for j in range(4))):
        # pcg_setseq_128_srandom_r(initstate, initseq) from state 0.
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        yield ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc


def _uniforms(seed: int, rep: int, start: int, stop: int, n: int,
              out=None):
    """The uniform draws of replicates start..stop-1 of repetition rep,
    written into out (stop - start, n) when given.

    Row i is default_rng(SeedSequence((seed, rep, start + i))).random(n):
    the rows' PCG64 states are derived in bulk (`_pcg64_states`) and
    each row is drawn by one reused generator set to its state.
    """
    ks = np.arange(start, stop, dtype=np.uint64)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    u = np.empty((stop - start, n)) if out is None else out
    for row, (state, inc) in zip(u, _pcg64_states(seed, rep, ks)):
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.random(n, out=row)
    return u


def _estimates(spec, loc, scale) -> np.ndarray:
    """The reported estimates of each row's (location, scale), NaN in a
    row whose parameters overflow (a Frechet sigma = exp(location) above
    the float range), found by splitting the rows in halves."""
    try:
        return np.transpose(spec.law.estimates(spec.params(loc, scale)))
    except OverflowError:
        if len(loc) == 1:
            return np.full((1, 2), np.nan)
        h = len(loc) // 2
        return np.concatenate([_estimates(spec, loc[:h], scale[:h]),
                               _estimates(spec, loc[h:], scale[h:])])


def _mean_sd(values):
    """Mean and standard deviation of the repetitions that have a value
    (not NaN), both NaN when none has.  They are computed on the values
    divided by a power of two near the largest of them, and multiplied
    back: the scaling is exact, so the results are the unscaled ones bit
    for bit, except that the squared deviations cannot overflow."""
    kept = values[~np.isnan(values)]
    if kept.size == 0:
        return math.nan, math.nan
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(kept))))[1] - 1)
    z = kept / scale
    return float(np.mean(z)) * scale, float(np.std(z)) * scale


def run_study(config: StudyConfig) -> StudyResult:
    """Run the full Monte Carlo study described by config."""
    config.validate()
    family, params, n = config.family, config.params, config.n
    schemes, replicates = config.schemes, config.replicates
    spec = SPECS[family]
    truth = np.array(spec.law.estimates(params))

    labels = [MLE_LABEL] + [s.label() for s in schemes]
    nlab = len(labels)
    ratio_reps = np.full((config.repetitions, nlab, 2), np.nan)
    re_reps = np.full((config.repetitions, nlab), np.nan)
    failures = np.zeros(nlab, dtype=int)
    block = max(1, BLOCK_ELEMENTS // n)
    # The block-sized buffers, reused by every block (a shorter last
    # block takes their leading rows): the uniforms, which the draw
    # turns into the data, and the MLE's workspace, whose first half
    # then takes the squares of the sorted data.
    u = np.empty((min(block, replicates), n))
    work = np.empty((2,) + u.shape)
    # Per repetition: the MLE and every scheme's t1, t2 of each row.
    mle = np.empty((2, replicates))
    t = np.empty((len(schemes), 2, replicates))
    constant = np.empty(replicates, dtype=bool)

    for rep in range(config.repetitions):
        for start in range(0, replicates, block):
            stop = min(start + block, replicates)
            size = stop - start
            y = spec.draw(params, _uniforms(config.seed, rep, start, stop, n,
                                            u[:size]))
            mle[:, start:stop] = spec.mle_rows(y, work[:, :size])
            y.sort(axis=1)
            _, constant[start:stop] = row_moments(
                y, np.multiply(y, y, out=work[0, :size]), schemes,
                t[:, :, start:stop])
        # A constant row has no MLE, as it has no fit (`solve_rows`).
        mle[1, constant] = np.nan
        fits = (fit[:2] for fit in solve_rows(t, constant, family, schemes,
                                              lambda: mle[1]))
        for idx, (loc, scale) in enumerate(itertools.chain([mle], fits)):
            est = _estimates(spec, loc, scale)
            arr = est[~np.isnan(est).any(axis=1)]
            failures[idx] += replicates - arr.shape[0]
            if arr.shape[0] < 2:
                continue
            try:
                with np.errstate(over="raise"):
                    ratio_reps[rep, idx] = np.mean(arr / truth, axis=0)
            except FloatingPointError:
                raise ValueError("parameters out of range: the ratios "
                                 "estimate / truth overflow") from None
            try:
                re_reps[rep, idx] = finite_re(family, params, arr, n)
            except ValueError:
                pass  # singular: this repetition's RE stays NaN

    total = replicates * config.repetitions
    rows = []
    for idx, label in enumerate(labels):
        frate = failures[idx] / total
        if frate > MAX_FAILURE_RATE:
            raise EstimationError(
                f"estimator {label} failed on {100.0 * frate:.1f}% of "
                f"replicates (limit {100.0 * MAX_FAILURE_RATE:.1f}%); "
                "update trimming proportions"
            )
        means, sds = zip(*(_mean_sd(v) for v in (
            ratio_reps[:, idx, 0], ratio_reps[:, idx, 1], re_reps[:, idx])))
        rows.append(SchemeSummary(label, *means, *sds, int(failures[idx])))
    return StudyResult(config, rows)
