import math
from functools import lru_cache

import numpy as np

from mvmeixner.errors import MeixnerError
from mvmeixner.model import ModelParams, enumerate_lattice, lattice_rank, shifted_factorial
from mvmeixner.spectral import SpectralData, solve

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


def lattice_index(n: int, S: int) -> dict[tuple[int, ...], int]:
    """Oracle for model.lattice_rank: each point's position in
    enumerate_lattice(n, S)."""
    return {x: i for i, x in enumerate(enumerate_lattice(n, S))}


def unit_shift(x: tuple[int, ...], j: int, step: int) -> tuple[int, ...]:
    """x + step * e_j. For step=-1 the caller must ensure x[j] >= 1."""
    return x[:j] + (x[j] + step,) + x[j + 1:]


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
