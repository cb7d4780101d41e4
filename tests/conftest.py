import math
import os
import warnings
from functools import lru_cache

import numpy as np
import pytest

from mvmeixner.errors import MeixnerError
from mvmeixner.model import ModelParams, lattice_rank, shifted_factorial
from mvmeixner.spectral import SpectralData, solve

# hypothesis's pytest plugin imports this module when a property test fails;
# its libcst import raises a DeprecationWarning (from mypy_extensions), which
# filterwarnings = error would turn into an INTERNALERROR that ends the
# session.  Imported once here with that warning ignored, so a failing
# property test is reported like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst not installed: the plugin then skips it too
        pass

# Desk-scale instances used across the suite: distinct rates per dimension.
C_BY_N = {1: (0.5,), 2: (0.2, 0.3), 3: (0.1, 0.2, 0.3)}
BETAS = (0.7, 1.5)


class DegreeCapExceeded(MeixnerError):
    """The tests' series oracles: a coefficient lies beyond the degree cap
    of the expansion."""


@lru_cache(maxsize=None)
def instance(n: int, beta: float) -> tuple[ModelParams, SpectralData]:
    p = ModelParams(beta, C_BY_N[n])
    return p, solve(p)


@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """All tuples of `parts` nonnegative ints summing to exactly `total`,
    first entry descending (the within-shell graded-lex order)."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def lattice_index(n: int, S: int) -> dict[tuple[int, ...], int]:
    """Oracle for model.lattice_rank: each point's position in the shells
    |x| = 0, 1, ..., S of `compositions`, one after another."""
    points = [x for s in range(S + 1) for x in compositions(s, n)]
    return {x: i for i, x in enumerate(points)}


def unit_shift(x: tuple[int, ...], j: int, step: int) -> tuple[int, ...]:
    """x + step * e_j. For step=-1 the caller must ensure x[j] >= 1."""
    return x[:j] + (x[j] + step,) + x[j + 1:]


def birth_rate(p: ModelParams, x: tuple[int, ...]) -> float:
    """B_j(x) = beta + |x|, identical for every direction j."""
    return p.beta + sum(x)


def death_rate(p: ModelParams, x: tuple[int, ...], j: int) -> float:
    """D_j(x) = x_j / c_j; vanishes at x_j = 0, which is the boundary condition."""
    return x[j] / p.c[j]


def all_instances() -> list[tuple[ModelParams, SpectralData]]:
    return [instance(n, beta) for n in (1, 2, 3) for beta in BETAS]


def meixner_1d(beta: float, c: float, m: int, x: int) -> float:
    """Single-variable oracle: the terminating 2F1 sum at argument 1 - 1/c.

    Terms alternate in sign (the argument is negative for 0 < c < 1), so the
    exactly-rounded fsum keeps cancellation from inflating the result.
    """
    z = 1.0 - 1.0 / c
    terms = [
        shifted_factorial(-m, k)
        * shifted_factorial(-x, k)
        / shifted_factorial(beta, k)
        * z**k
        / math.factorial(k)
        for k in range(min(m, x) + 1)
    ]
    return math.fsum(terms)


def series_coefficient(series, m: tuple[int, ...]) -> float:
    """Coefficient of t^m in a polynomials.TruncatedSeries."""
    if sum(m) > series.cap:
        raise DegreeCapExceeded(f"degree {sum(m)} beyond cap {series.cap}")
    if len(m) != series.n_vars or min(m) < 0:
        raise ValueError(f"exponent {tuple(m)} is not in N_0^{series.n_vars}")
    return float(series.values[lattice_rank(np.array([m]))[0]])


def _assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
