"""Monte Carlo study harness: mean ratios and finite-sample relative
efficiency of the trimmed estimators versus maximum likelihood.

Each outer repetition draws a batch of samples; every estimator in the
study is fitted to the same samples.  Replicate k of repetition r draws
its uniforms from its own stream, numpy's
default_rng(SeedSequence((seed, r, k))), so results are reproducible and
do not depend on how replicates are grouped.  The streams of a block are
not built one SeedSequence at a time: their PCG64 states are derived
together in uint64 array arithmetic that reproduces numpy's seeding bit
for bit (`_pcg64_states`, the 128-bit LCG step in 32-bit limbs), and one
reused generator draws each row.  A row's state is written through
numpy's state pointer (`PCG64.ctypes.state_address`), in the word order
probed once per process: one known state is set through numpy's dict
setter and read back from the struct.
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
moments, and one `FamilyLaw.reported` pass, with numpy's exp, maps an
estimator's rows to its estimates, one (2, R) array with a contiguous
row per reported parameter, whose ratios and RE follow (`_score`).  A
replicate whose fit fails, whose estimates are not finite (an
overflowed sigma = exp(location)), or whose MLE fails where the MLE
row or a proximity rule needs it, counts in that estimator's failures
and is left out of its ratios and RE (a constant replicate fails
every estimator, the MLE too); a singular RE leaves that repetition's
RE NaN.  Past MAX_FAILURE_RATE the study stops; its message names the
overflow where most of that estimator's failures are inf sigmas,
else the likelihood maximum (MLE) or the missing root (schemes).  Mean
ratios and REs are computed per repetition and averaged, with standard
deviations across repetitions alongside, for every estimator at once
in one pass over an (estimators, 3, repetitions) array (`_summarise`);
a true parameter so small that the ratios estimate / truth overflow
puts the study out of range.  The `StudyResult` is built once, from the
finished rows.
"""

from __future__ import annotations

import ctypes
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
# repetition's arrays grow with its replicates and schemes: 16 bytes each
# for every scheme's t1, t2 and for the MLE are kept, and the solve and
# estimates of one estimator take more.  The tracemalloc peak at n = 20
# is 358 bytes a replicate with 12 schemes and 934 with 48, so about
# 1 GB at MAX_SIZE replicates and 48 schemes; the number of --scheme
# options is unbounded.
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
    each parameter by its MLE standard deviation, which leaves the ratio
    unchanged; a determinant that is not a positive finite float, as
    where the scaled errors, their squares or the products of those
    overflow, is singular.
    """
    est = np.asarray(estimates, dtype=float)
    if est.ndim != 2 or est.shape[0] < 2 or est.shape[1] != 2:
        raise ValueError("estimates must be an (m, 2) array with m >= 2")
    cov = s_mle(family, params)
    sd = np.sqrt(np.diag(cov))
    with np.errstate(over="ignore", invalid="ignore"):
        z = (est - np.array(LAWS[family].estimates(params))) / sd
        det = det2(z.T @ z / z.shape[0])
    if not 0.0 < det < math.inf:
        raise ValueError("empirical cross-moment matrix is singular")
    return math.sqrt(det2(cov / np.outer(sd, sd))) / (n * math.sqrt(det))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = 2 ** 32 - 1, 2 ** 64 - 1
_PCG64_MULT_LIMBS = [_PCG64_MULT >> s & _MASK32 for s in range(0, 128, 32)]
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


def _limb_sum(a, b):
    """a + b mod 2**128, on four 32-bit limbs each, low limb first."""
    out, carry = [], 0
    for x, y in zip(a, b):
        total = x + y + carry
        out.append(total & _MASK32)
        carry = total >> 32
    return out


def _pcg64_states(seed: int, rep: int, ks):
    """The PCG64 state and increment of
    default_rng(SeedSequence((seed, rep, k))) for each k of the uint64
    array ks, as a (len(ks), 4) uint64 array: the state's two 64-bit
    words, then the increment's two, each low word first.

    SeedSequence's pool mix and generate_state(4, uint64) run on uint64
    arrays of 32-bit words, one element per k.  The entropy is the words
    of seed, rep and k; a k below 2**32 has no high word, and its zero
    there stands for numpy's zero padding inside the pool (seed and rep
    give at least two words) and is skipped beyond it.  PCG64's seeding,
    ((inc + initstate) * MULT + inc) mod 2**128 with inc = initseq << 1 | 1,
    runs on the same arrays in 32-bit limbs: a limb product plus a limb
    and a carry fits in a uint64.
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
    # generate_state's uint64 word j is 32-bit words 2j (low) and 2j + 1:
    # words 0 and 1 are initstate's high and low halves, 2 and 3 initseq's.
    # Then pcg_setseq_128_srandom_r from state 0, on limbs low first.
    initstate = words[2:4] + words[0:2]
    initseq = words[6:8] + words[4:6]
    # Each limb of inc takes the top bit of the limb below, the low
    # limb a 1.
    inc = [(w << 1 | lower >> 31) & _MASK32
           for w, lower in zip(initseq, [1 << 31] + initseq[:3])]
    base = _limb_sum(inc, initstate)
    state = [0] * 4  # base * MULT mod 2**128, schoolbook
    for i, limb in enumerate(base):
        carry = 0
        for j, mult in enumerate(_PCG64_MULT_LIMBS[:4 - i]):
            total = limb * mult + state[i + j] + carry
            state[i + j] = total & _MASK32
            carry = total >> 32
    state = _limb_sum(state, inc)
    limbs = state + inc
    out = np.empty(ks.shape + (4,), np.uint64)
    for col in range(4):
        out[:, col] = limbs[2 * col] | limbs[2 * col + 1] << 32
    return out


_PROBE_STATE = 0x0123456789ABCDEF_FEDCBA9876543210
_PROBE_INC = 0x0F1E2D3C4B5A6978_8796A5B4C3D2E1F1


def _struct_order(words) -> tuple:
    """The columns of a `_pcg64_states` row in the order of the four
    uint64 words of a pcg64_random_t, given the words of one that holds
    _PROBE_STATE and _PROBE_INC: low word first where numpy stores them
    as __uint128_t, high word first where it has no 128-bit integer."""
    halves = [_PROBE_STATE & _MASK64, _PROBE_STATE >> 64,
              _PROBE_INC & _MASK64, _PROBE_INC >> 64]
    for order in ((0, 1, 2, 3), (1, 0, 3, 2)):
        if [halves[c] for c in order] == list(words):
            return order
    raise RuntimeError("numpy's PCG64 state struct has an unknown layout")


def _state_words(bitgen):
    """The four uint64 words of bitgen's pcg64_random_t, as a ctypes
    array on them: the struct that the first field of numpy's state
    struct, at `bitgen.ctypes.state_address`, points to."""
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address)
    return (ctypes.c_uint64 * 4).from_address(address.value)


def _probe_word_order() -> tuple:
    """`_struct_order` of this numpy: one known state is set through the
    dict setter and read back from the struct."""
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": _PROBE_STATE, "inc": _PROBE_INC},
                    "has_uint32": 0, "uinteger": 0}
    return _struct_order(_state_words(bitgen))


# Probed once per process, at import.
_WORD_ORDER = _probe_word_order()


def _uniforms(seed: int, rep: int, start: int, stop: int, n: int,
              out=None):
    """The uniform draws of replicates start..stop-1 of repetition rep,
    written into out (stop - start, n) when given.

    Row i is default_rng(SeedSequence((seed, rep, start + i))).random(n):
    the rows' PCG64 states are derived in bulk (`_pcg64_states`) and put
    in the struct's word order, probed once per process (`_WORD_ORDER`).
    One reused generator draws every row, after the row's 32 bytes are
    copied over its state through numpy's state pointer.  Its has_uint32
    and uinteger stay 0, as `random` draws doubles only.
    """
    ks = np.arange(start, stop, dtype=np.uint64)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    u = np.empty((stop - start, n)) if out is None else out
    states = np.ascontiguousarray(
        _pcg64_states(seed, rep, ks)[:, _WORD_ORDER])
    source = memoryview(states.view(np.uint8).ravel())
    target = memoryview(_state_words(bitgen)).cast("B")
    random = gen.random
    for row, at in zip(u, range(0, source.nbytes, 32)):
        target[:] = source[at:at + 32]
        random(n, out=row)
    return u


def _score(family: Family, params: ParameterVector, n: int, loc, scale):
    """One estimator's replicates of a repetition, as the location and
    scale rows of its fits: its failures, the failures whose estimates
    hold inf (an overflowed sigma), its mean ratios estimate / truth and
    its RE.  The ratios and RE are NaN where fewer than 2 replicates are
    kept, the RE also where it is singular.

    The estimates are one (2, R) array, a row per reported parameter,
    and the kept columns are copied out by `np.compress`, so each
    parameter's ratios are averaged along a contiguous row and
    `finite_re` takes the column-contiguous transpose.
    """
    law = LAWS[family]
    with np.errstate(over="ignore"):
        est = np.array(law.reported(loc, scale, np.exp))
    finite = np.isfinite(est)
    kept = finite[0] & finite[1]
    arr = np.compress(kept, est, axis=1)
    failed = est.shape[1] - arr.shape[1]
    overflowed = np.count_nonzero(np.isinf(est).any(axis=0)) if failed else 0
    if arr.shape[1] < 2:
        return failed, overflowed, (math.nan, math.nan), math.nan
    truth = np.array(law.estimates(params))
    try:
        with np.errstate(over="raise"):
            ratios = np.mean(arr / truth[:, None], axis=1)
    except FloatingPointError:
        raise ValueError("parameters out of range: the ratios "
                         "estimate / truth overflow") from None
    try:
        re = finite_re(family, params, arr.T, n)
    except ValueError:
        re = math.nan  # singular
    return failed, overflowed, ratios, re


def _summarise(values):
    """Mean and standard deviation along the last axis, the repetitions,
    of the values that are not NaN; both NaN where none is.  Each row is
    divided by a power of two near its largest magnitude, and the
    results multiplied back: the scaling is exact, so they are the
    unscaled ones bit for bit, except that the squared deviations cannot
    overflow.  Where a row holds no NaN, its sums are numpy's pairwise
    sums along a contiguous row, so the results are `np.mean` and
    `np.std` of the row bit for bit."""
    missing = np.isnan(values)
    count = values.shape[-1] - np.count_nonzero(missing, axis=-1)
    largest = np.fmax.reduce(np.abs(values), axis=-1)  # NaN-ignoring
    scale = np.ldexp(1.0, np.frexp(largest)[1] - 1)
    z = np.where(missing, 0.0, values / scale[..., None])
    with np.errstate(invalid="ignore"):  # 0 / 0 where a row is all NaN
        mean = z.sum(axis=-1) / count
        dev = np.where(missing, 0.0, z - mean[..., None])
        sd = np.sqrt(np.sum(dev * dev, axis=-1) / count)
    return mean * scale, sd * scale


def run_study(config: StudyConfig) -> StudyResult:
    """Run the full Monte Carlo study described by config."""
    config.validate()
    family, params, n = config.family, config.params, config.n
    schemes, replicates = config.schemes, config.replicates
    spec = SPECS[family]

    labels = [MLE_LABEL] + [s.label() for s in schemes]
    nlab = len(labels)
    # Each estimator's two mean ratios and RE of every repetition, the
    # repetitions contiguous for `_summarise`.
    scores = np.full((nlab, 3, config.repetitions), np.nan)
    failures = np.zeros(nlab, dtype=int)
    # Failures whose estimates hold inf: the reported sigma overflowed.
    overflows = np.zeros(nlab, dtype=int)
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
            failed, overflowed, scores[idx, :2, rep], scores[idx, 2, rep] = \
                _score(family, params, n, loc, scale)
            failures[idx] += failed
            overflows[idx] += overflowed

    total = replicates * config.repetitions
    for idx, label in enumerate(labels):
        frate = failures[idx] / total
        if frate > MAX_FAILURE_RATE:
            cause = ("parameters out of range: the reported sigma = "
                     "exp(location) overflows"
                     if 2 * overflows[idx] > failures[idx]
                     else "no likelihood maximum: constant replicates or "
                     "no convergence" if label == MLE_LABEL
                     else "no admissible scale candidate: update "
                     "trimming proportions")
            raise EstimationError(
                f"estimator {label} failed on {100.0 * frate:.1f}% of "
                f"replicates (limit {100.0 * MAX_FAILURE_RATE:.1f}%); "
                + cause
            )
    means, sds = _summarise(scores)
    rows = [SchemeSummary(label, *mean, *sd, int(fails)) for label, mean, sd,
            fails in zip(labels, means.tolist(), sds.tolist(), failures)]
    return StudyResult(config, rows)
