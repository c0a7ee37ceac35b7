"""Fixed Kronrod-15 quadrature of the Gumbel segment integrands.

The package's one integral is M_k = int x^k g(x) dx over a segment
[G(lo), G(hi)] of the Gumbel variable (`moments._segment`): smooth and
bounded on x in [-4, G(1 - 2^-53) ~ 36.7].  [a, b] is cut at the knots
of _KNOTS strictly inside it, and each piece takes one 15-point Kronrod
panel; every node of every piece goes to f in one call.  The knots
are 0.5 apart below x = -1, where g rises double-exponentially, and
double in spacing up the exponentially decaying upper tail.  Against a
30-digit reference the worst segment error is 7.2e-14; on every
segment between the points k/100 (k <= 30 or k >= 70) and the far
tails of G, the rule stays within 2.0e-14 of an adaptive GK15 rule held
to 1e-10.
"""

from __future__ import annotations

import numpy as np

__all__ = ["integrate"]

# 15-point Kronrod abscissae on [-1, 1] and their weights.  Values from
# the standard QUADPACK tables.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898,
    0.405845151377397, 0.586087235467691, 0.741531185599394,
    0.864864423359769, 0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])

_KNOTS = (-3.5, -3.0, -2.5, -2.0, -1.5, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0,
          16.0, 32.0)


def integrate(f, a, b):
    """Integrate f over [a, b] (a < b) by one K15 panel per piece between
    the knots inside it.  f is vectorised, evaluated once on every
    node (all interior), and may return a (k, nodes) stack of k
    components; the result is a float, or the k integrals."""
    cuts = np.array([a, *(k for k in _KNOTS if a < k < b), b])
    half = 0.5 * np.diff(cuts)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    y = np.asarray(f((mid[:, None] + half[:, None] * _XK).ravel()),
                   dtype=float)
    return (y.reshape(*y.shape[:-1], half.size, _XK.size) @ _WK) @ half
