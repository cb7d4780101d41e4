"""Model parameters, multi-index lattice utilities, and weight arithmetic.

Multi-indices are plain tuples of nonnegative ints throughout the package;
the canonical serialization order for anything indexed by the lattice is
graded lexicographic (total degree first, then first entry descending),
as produced by :func:`enumerate_lattice`.  :func:`lattice_rank` gives a
point's position in that order in closed form, and :func:`lattice_points`
builds shells as int arrays by its inverse :func:`lattice_unrank`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import CMassNotBelowOne, NonPositiveBeta, NonPositiveC, ParameterError

# Two c entries closer than this (relative) collapse a pole gap of the
# secular equation, so they are treated as coincident.
DEGENERACY_RTOL = 1e-12

# The largest k whose k! converts to a double (171! exceeds 1.8e308): the
# route-1 coefficient lists, route 2's series and Wbar divide by k! in
# floats, so no degree or series cap may pass it.
MAX_DEGREE = 170

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


def check_degree(deg: int, what: str) -> None:
    """ParameterError if deg exceeds MAX_DEGREE."""
    if deg > MAX_DEGREE:
        raise ParameterError(
            f"{what}={deg} exceeds {MAX_DEGREE}, the largest k whose k! is a double"
        )


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


@lru_cache(maxsize=64)
def _rank_table(top: int, n: int) -> np.ndarray:
    """T[k, s] = C(s-1+k, k), the number of points of N_0^k with sum < s, for
    k <= n and s <= top; no entry exceeds the size of {|x| <= top} in N_0^n."""
    out = np.array(
        [[math.comb(s - 1 + k, k) if s else 0 for s in range(top + 1)] for k in range(n + 1)],
        dtype=np.int64,
    )
    out.flags.writeable = False
    return out


def lattice_rank(X: np.ndarray) -> np.ndarray:
    """Position of each row x of the int array X (shape (N, n)) in every
    compositions_upto(S, n) with S >= |x|.  With s_i = x_i + ... + x_{n-1},
    x comes after the T[n, s_0] points of smaller sum, then after the y of
    its shell with y_0 > x_0, i.e. with y_1 + ... + y_{n-1} < s_1, and so on:
    rank(x) = sum_i T[n-i, s_i] (T of _rank_table).  ValueError if an
    entry of X is negative."""
    if X.min(initial=0) < 0:
        raise ValueError("lattice_rank needs points of N_0^n, got a negative entry")
    n = X.shape[1]
    T = _rank_table(int(X.sum(axis=1).max(initial=0)), n)
    s = X[:, n - 1].astype(np.int64)
    rank = T[1][s]
    for i in range(n - 2, -1, -1):
        s += X[:, i]
        rank += T[n - i][s]
    return rank


def lattice_unrank(rank: np.ndarray, n: int) -> np.ndarray:
    """The points of N_0^n at the graded-lex positions `rank`, as an int
    array of shape (len(rank), n): the inverse of lattice_rank.  Its sum
    rank = sum_i T[n-i, s_i] is read off from the front: s_i is the largest
    s with T[n-i, s] <= what is left of the rank, found by searchsorted."""
    rank = np.asarray(rank, dtype=np.int64)
    last, top = int(rank.max(initial=0)), 1
    # doubled past the largest rank's shell, so a walk over shells reuses few tables
    while math.comb(top + n, n) <= last:  # C(top + n, n) points have |x| <= top
        top *= 2
    T = _rank_table(top, n)
    s = np.zeros((len(rank), n + 1), dtype=np.int64)
    for i in range(n):
        s[:, i] = np.searchsorted(T[n - i], rank, side="right") - 1
        rank = rank - T[n - i][s[:, i]]
    return s[:, :n] - s[:, 1:]


def lattice_points(n: int, lo: int, hi: int) -> np.ndarray:
    """The points lo <= |x| <= hi of N_0^n as an int array, graded-lex: the
    positions C(lo-1+n, n) to C(hi+n, n) (T[n, lo] to T[n, hi+1] of
    _rank_table), unranked."""
    first = math.comb(lo - 1 + n, n) if lo else 0
    return lattice_unrank(np.arange(first, math.comb(hi + n, n)), n)


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
    # each table spans only the values present: a shell has one |x|
    lo = int(S.min())
    shell_term = p.beta * math.log1p(-p.c_mass)
    out = np.array(
        [log_shifted_factorial(p.beta, s) + shell_term for s in range(lo, int(S.max()) + 1)]
    )[S - lo]
    for i, ci in enumerate(p.c):
        log_ci, lo = math.log(ci), int(X[:, i].min())
        coord = [k * log_ci - math.lgamma(k + 1) for k in range(lo, int(X[:, i].max()) + 1)]
        out += np.array(coord)[X[:, i] - lo]
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

