"""Model parameters, multi-index lattice utilities, and weight arithmetic.

Multi-indices are plain tuples of nonnegative ints throughout the package;
the canonical serialization order for anything indexed by the lattice is
graded lexicographic (total degree first, then first entry descending),
as produced by :func:`enumerate_lattice`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import CMassNotBelowOne, NonPositiveBeta, NonPositiveC

# Two c entries closer than this (relative) collapse a pole gap of the
# secular equation, so they are treated as coincident.
DEGENERACY_RTOL = 1e-12

# Cap on the number of terms tail_bound sums.
_TAIL_MAX_TERMS = 100_000

MultiIndex = tuple[int, ...]


def _check_params(beta: float, c: Sequence[float]) -> None:
    if not beta > 0:
        raise NonPositiveBeta(f"beta must be > 0, got {beta}")
    if len(c) < 1:
        raise NonPositiveC("need at least one rate parameter c_j")
    for j, cj in enumerate(c):
        if not cj > 0:
            raise NonPositiveC(f"c[{j}] must be > 0, got {cj}")
    mass = math.fsum(c)
    if not mass < 1:
        raise CMassNotBelowOne(f"sum(c) must be < 1 for summability, got {mass}")


def _coincident(ci: float, cj: float, rtol: float) -> bool:
    return abs(ci - cj) <= rtol * max(1.0, abs(ci), abs(cj))


@dataclass(frozen=True)
class ModelParams:
    """Problem data: dimension n, shape beta > 0, rates c with 0 < sum(c) < 1."""

    beta: float
    c: tuple[float, ...]

    def __init__(self, beta: float, c: Sequence[float]):
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "c", tuple(float(v) for v in c))
        _check_params(self.beta, self.c)

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def c_mass(self) -> float:
        return math.fsum(self.c)

    @property
    def degenerate(self) -> bool:
        """True iff some pair of c entries coincides within DEGENERACY_RTOL."""
        cs = self.c
        return any(
            _coincident(cs[i], cs[j], DEGENERACY_RTOL)
            for i in range(len(cs))
            for j in range(i + 1, len(cs))
        )


def validate_params(p: ModelParams) -> ModelParams:
    """Re-check all parameter invariants and hand back the same instance.

    The constructor already validates, so this is for values that arrived
    through deserialization or were built with object.__setattr__ tricks.
    """
    _check_params(p.beta, p.c)
    return p


# ---------------------------------------------------------------------------
# shifted factorial (Pochhammer)
# ---------------------------------------------------------------------------

def shifted_factorial(a: float, k: int) -> float:
    """(a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    Exact zero when a is a nonpositive integer with -a < k; this truncation
    is what terminates every series in the package.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def log_shifted_factorial(a: float, k: int) -> float:
    """log (a)_k for a > 0, safe for k far beyond double-precision overflow."""
    if a <= 0:
        raise ValueError(f"log-space form needs a > 0, got {a}")
    return math.lgamma(a + k) - math.lgamma(a)


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple[MultiIndex, ...]:
    """All tuples of `parts` nonnegative ints summing to exactly `total`,
    first entry descending (the within-shell graded-lex order)."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def compositions_upto(limit: int, parts: int) -> tuple[MultiIndex, ...]:
    """All tuples of `parts` nonnegative ints with sum <= `limit`, graded-lex."""
    out = []
    for s in range(limit + 1):
        out.extend(compositions(s, parts))
    return tuple(out)


def enumerate_lattice(n: int, S: int) -> list[MultiIndex]:
    """All x in N_0^n with |x| <= S in graded-lex order; len = C(S+n, n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if S < 0:
        raise ValueError(f"S must be >= 0, got {S}")
    return list(compositions_upto(S, n))


def lattice_index(n: int, S: int) -> dict[MultiIndex, int]:
    """Map from multi-index to its position in enumerate_lattice(n, S)."""
    return {x: i for i, x in enumerate(enumerate_lattice(n, S))}


def unit_shift(x: MultiIndex, j: int, step: int) -> MultiIndex:
    """x + step * e_j. For step=-1 the caller must ensure x[j] >= 1."""
    return x[:j] + (x[j] + step,) + x[j + 1:]


# ---------------------------------------------------------------------------
# stationary weight and its tail
# ---------------------------------------------------------------------------

def log_weight(p: ModelParams, x: MultiIndex) -> float:
    """log W(x) with W(x) = (beta)_{|x|} c^x / x! * (1-|c|)^beta.

    Log-space throughout: (beta)_{|x|} overflows doubles near |x| ~ 170.
    """
    s = sum(x)
    out = log_shifted_factorial(p.beta, s) + p.beta * math.log1p(-p.c_mass)
    for xi, ci in zip(x, p.c):
        out += xi * math.log(ci) - math.lgamma(xi + 1)
    return out


def weight(p: ModelParams, x: MultiIndex) -> float:
    return math.exp(log_weight(p, x))


def weight_vector(p: ModelParams, lattice: Sequence[MultiIndex]) -> np.ndarray:
    """weight(p, x) at every x of the lattice, bit for bit.

    The terms of log_weight depend on |x| or on one coordinate only, so they
    are tabulated once with `math` and gathered by index; they are added in
    log_weight's order and exponentiated by math.exp, whose rounding
    numpy's exp does not always match.
    """
    X = np.asarray(lattice, dtype=np.int64).reshape(len(lattice), p.n)
    if not len(X):
        return np.array([])
    S = X.sum(axis=1)
    shell_term = p.beta * math.log1p(-p.c_mass)
    out = np.array(
        [log_shifted_factorial(p.beta, s) + shell_term for s in range(int(S.max()) + 1)]
    )[S]
    for i, ci in enumerate(p.c):
        log_ci = math.log(ci)
        coord = [k * log_ci - math.lgamma(k + 1) for k in range(int(X[:, i].max()) + 1)]
        out += np.array(coord)[X[:, i]]
    return np.array([math.exp(v) for v in out.tolist()])


def tail_bound(p: ModelParams, S: int, power: int = 0) -> float:
    """Omitted moment sum_{|x| > S} |x|^power W(x); power 0 is the mass of the
    weight outside |x| <= S.

    The multinomial identity collapses the shell sum over |x| = s to
    rho(s) = (beta)_s |c|^s / s! * (1-|c|)^beta, so this is the scalar series
    sum_{s>S} s^power rho(s), summed here with ratio recursion until terms
    stop contributing at machine accuracy; the first omitted term is added.
    """
    if S < 0:
        raise ValueError(f"S must be >= 0, got {S}")
    q = p.c_mass
    log_first = (
        log_shifted_factorial(p.beta, S + 1)
        + (S + 1) * math.log(q)
        - math.lgamma(S + 2)
        + p.beta * math.log1p(-q)
    )
    term = math.exp(log_first)
    total = 0.0
    s = S + 1
    for _ in range(_TAIL_MAX_TERMS):
        total += term * s**power
        term *= (p.beta + s) * q / (s + 1)
        s += 1
        if term * s**power <= total * 1e-17 or term < 5e-324:
            break
    return total + term * s**power

