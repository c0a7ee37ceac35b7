"""Adaptive one-dimensional quadrature on a finite interval.

The integrator is a nested Gauss-Kronrod 7/15 rule driven by a global
error heap: the subinterval with the largest error estimate is bisected
until the accumulated error drops below 1e-10.  An integrand may return
k components (powers of one base variable), each held to that
tolerance: a panel's error is their largest |K15 - G7|.  The package
integrates smooth, bounded integrands in the Gumbel variable
(`moments._segment`).  Singular endpoints come only from the tests'
oracles, which integrate powers of quantile functions over (0, 1); they
may diverge (integrably) at 0 and 1.  For them a limit at 0 or 1 gets
geometric seed panels, and bisection toward it produces geometrically
shrinking panels, the refinement such singularities need.  All
evaluation nodes are interior, so f is never called at 0 or 1: on a
panel ending at 1, where a node may round to 1, they are clamped below
it.  (A smooth integrand with such a limit only pays a few extra
panels.)
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["IntegrationError", "integrate"]

# 15-point Kronrod abscissae on [-1, 1] and the matching weights for the
# embedded 7-point Gauss rule.  Values from the standard QUADPACK tables.
_XK = np.array([
    -0.991455371120813,
    -0.949107912342759,
    -0.864864423359769,
    -0.741531185599394,
    -0.586087235467691,
    -0.405845151377397,
    -0.207784955007898,
    0.0,
    0.207784955007898,
    0.405845151377397,
    0.586087235467691,
    0.741531185599394,
    0.864864423359769,
    0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
    0.204432940075298,
    0.190350578064785,
    0.169004726639267,
    0.140653259715525,
    0.104790010322250,
    0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
    0.381830050505119,
    0.279705391489277,
    0.129484966168870,
])

# K15 weights and K15 minus G7 weights: one product gives both rules.
_W = np.stack((_WK, _WK - np.insert(_WG, range(8), 0.0)), axis=1)

_MAX_INTERVALS = 2 ** 16
_TOL = 1e-10
_BELOW_ONE = np.nextafter(1.0, 0.0)


class IntegrationError(Exception):
    """Raised when the subdivision budget is exhausted.

    Carries the best available estimate and its error bound so callers
    can decide whether to proceed anyway.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _gk15(f, a, b):
    """Kronrod-15 estimate on [a, b] of each component of f, plus the
    largest difference from the embedded Gauss-7 rule as the error."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _XK
    if b == 1.0:
        x = np.minimum(x, _BELOW_ONE)
    y = np.asarray(f(x), dtype=float)
    r = half * (y @ _W)
    return r[..., 0], float(abs(r[..., 1]).max())


def integrate(f, a, b):
    """Integrate f over [a, b], absolute error <= 1e-10.

    Parameters
    ----------
    f : callable
        Vectorized integrand, finite on the open interval; it may return
        a (k, nodes) stack of k components.
    a, b : float
        Finite limits with a < b.  Endpoint values 0 and 1 are fine:
        only interior nodes are ever evaluated, and a limit at 0 or 1 is
        treated as a possible singularity of a quantile power.

    Returns
    -------
    float, or the k integrals of a stacked integrand

    Raises
    ------
    IntegrationError
        If the error target is not met within the 2**16 subinterval
        budget.
    ValueError
        On an invalid interval.
    """
    if not (a < b):
        raise ValueError(f"integration limits must satisfy a < b, got [{a}, {b}]")

    # Seed panels: peel geometric shells off the limits 0 and 1, where
    # quantile powers may diverge, so the first adaptive pass already
    # resolves most of the spike.
    w = b - a
    cuts = [a]
    if a == 0.0:
        cuts.extend(a + w * 10.0 ** (-k) for k in range(6, 0, -1))
    if b == 1.0:
        cuts.extend(b - w * 10.0 ** (-k) for k in range(1, 7))
    cuts.append(b)
    cuts = sorted(set(cuts))

    heap, total, total_err = [], 0.0, 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        est, err = _gk15(f, lo, hi)
        total += est
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, est))
    count = len(heap)

    while total_err > _TOL and heap:
        if count >= _MAX_INTERVALS:
            raise IntegrationError(
                f"quadrature budget of {_MAX_INTERVALS} subintervals exhausted "
                f"(error bound {total_err:.3e} > tol {_TOL:.3e})",
                total,
                total_err,
            )
        neg_err, lo, hi, est = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at floating point resolution; keep its estimate.
            total_err = max(total_err + neg_err, 0.0)  # drop its error
            continue
        e1, r1 = _gk15(f, lo, mid)
        e2, r2 = _gk15(f, mid, hi)
        total += (e1 + e2) - est
        total_err += (r1 + r2) + neg_err
        heapq.heappush(heap, (-r1, lo, mid, e1))
        heapq.heappush(heap, (-r2, mid, hi, e2))
        count += 1

    return total
