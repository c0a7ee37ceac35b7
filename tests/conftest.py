import sys

import numpy as np
import pytest

from trimmoments.models import Family, ParameterVector
from trimmoments.moments import validate_scheme


def clear_caches():
    """Empty every functools cache of the trimmoments modules, so that
    the next call computes from scratch."""
    for name, module in list(sys.modules.items()):
        if name == "trimmoments" or name.startswith("trimmoments."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# The simulation table's schemes, as the benchmark's Monte Carlo studies
# fit them.
STUDY_SCHEMES = [validate_scheme(*q) for q in (
    (0.0, 0.0, 0.0, 0.0), (0.0, 0.05, 0.0, 0.05), (0.0, 0.1, 0.0, 0.1),
    (0.1, 0.0, 0.05, 0.05), (0.05, 0.05, 0.0, 0.1), (0.1, 0.1, 0.0, 0.2),
    (0.15, 0.15, 0.0, 0.3), (0.0, 0.1, 0.05, 0.05), (0.05, 0.05, 0.1, 0.0),
    (0.1, 0.1, 0.2, 0.0), (0.15, 0.15, 0.3, 0.0), (0.25, 0.5, 0.5, 0.25))]


def scheme(a1, b1, a2, b2):
    return validate_scheme(a1, b1, a2, b2)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_scheme(rng, lo=0.02, hi=0.35):
    """A random valid scheme with both orderings represented."""
    for _ in range(1000):
        a1, b1, a2, b2 = rng.uniform(lo, hi, size=4)
        if rng.random() < 0.5:
            # condition (8): a2 <= a1 and bbar2 <= bbar1 (b1 <= b2)
            a2, a1 = sorted((a1, a2))
            b1, b2 = sorted((b1, b2))
        else:
            # condition (12): the index-swapped ordering
            a1, a2 = sorted((a1, a2))
            b2, b1 = sorted((b1, b2))
        if a1 + b1 < 1.0 and a2 + b2 < 1.0:
            try:
                return validate_scheme(a1, b1, a2, b2)
            except Exception:
                continue
    raise RuntimeError("could not draw a random scheme")


def random_params(rng, family):
    if family is Family.FRECHET:
        return ParameterVector(sigma=rng.uniform(0.5, 4.0),
                               beta=rng.uniform(0.3, 4.0))
    return ParameterVector(theta=rng.uniform(-5.0, 5.0),
                           sigma=rng.uniform(0.5, 4.0))
