"""Polynomial evaluation by two independent routes.

Route 1 (`meixner_eval`, `poly_table`): the terminating matrix sum over
n-by-n nonnegative integer matrices, collapsed onto row-sum vectors r,

    P_m(x) = sum_r coeff_r * prod_i (-x_i)_{r_i}.

A matrix contributes zero unless column j sums to at most m_j and row i to
at most x_i, because a shifted factorial with a nonpositive-integer base
vanishes.  coeff_r depends on (beta, u, m) only: `_row_sum_coeffs` builds
one list of (lattice_rank of r, coeff_r) per m in numpy, summing each r
bucket with fsum, and caches it.  A single point (`meixner_eval`) reads the
r <= x of its m's list in Python floats and sums them with fsum; a table
(`_table_values`, behind `poly_table` and `poly_values`) is built one r at
a time over every m whose list holds r, on blocks of points, and each of
its values is the one a loop over its own m's list gives.  The spectral
kernel's table (`_product_table`) is the same sum as one product P = C V of
the lists and V[r, x] = prod_i (-x_i)_{r_i}, equal to it to rounding.

Route 2 (`genfun_all`): expansion of the generating function

    G(x; t) = (1 - |t|)^(-beta-|x|) * prod_i (1 - sum_j b_ij t_j)^(x_i)

as a truncated multivariate power series in t; the coefficient of t^m is
(beta)_{|m|} / m! times the polynomial.  A series is one vector over the
exponents |k| <= cap, and a product sums the pairs of a cached table in a
fixed order, so each coefficient is the one a loop over the pairs gives.
The two routes share no evaluation code (only the bookkeeping of
model.compositions_upto and model.lattice_rank) and are each other's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import (
    ModelParams,
    MultiIndex,
    check_degree,
    compositions_upto,
    enumerate_lattice,
    lattice_rank,
    shifted_factorial,
)
from .spectral import SpectralData

# ---------------------------------------------------------------------------
# Route 1: terminating matrix sum
# ---------------------------------------------------------------------------

def _u_columns(sd: SpectralData) -> tuple[tuple[float, ...], ...]:
    return tuple(zip(*sd.u))


@lru_cache(maxsize=64)
def _composition_array(deg: int, n: int) -> np.ndarray:
    """compositions_upto(deg, n) as a read-only int array, one row each."""
    out = np.array(compositions_upto(deg, n), dtype=np.intp).reshape(-1, n)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _nonzero_parts(deg: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each r of compositions_upto(deg, n), its (i, r_i) with r_i > 0."""
    return tuple(
        tuple((i, k) for i, k in enumerate(r) if k) for r in compositions_upto(deg, n)
    )


# One entry per (beta, u, m); 1024 entries bound the memory held when many
# parameter sets are evaluated in one process.
@lru_cache(maxsize=1024)
def _row_sum_coeffs(
    beta: float, u_cols: tuple[tuple[float, ...], ...], m: MultiIndex
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse the matrix sum onto its row-sum vectors r:

        P_m(x) = sum_r coeff_r * prod_i (-x_i)_{r_i}.

    Returns each r as its lattice_rank, its position in every
    compositions_upto(d, n) with d >= |r|, ascending (so graded-lex), and
    coeff_r beside it.  Column j of a matrix is a composition of at most
    m_j with factor (-m_j)_{|col|} * prod_i u_ij^{col_i} / col_i!; a
    matrix's product is formed column by column from 1.0, each r bucket is
    summed by fsum and divided by (beta)_{|r|}.  Nothing here depends on x.
    ParameterError if |m| exceeds MAX_DEGREE.
    """
    n, deg = len(m), sum(m)
    check_degree(deg, "degree |m|")
    rows = np.zeros((1, n), dtype=np.int64)
    prods = np.ones(1)
    for j, mj in enumerate(m):
        cols = np.array(compositions_upto(mj, n), dtype=np.int64)
        fac = np.array([shifted_factorial(-mj, s) for s in range(mj + 1)])[cols.sum(axis=1)]
        for i in range(n):
            powers = [u_cols[j][i] ** k / math.factorial(k) for k in range(mj + 1)]
            fac = fac * np.array(powers)[cols[:, i]]
        nonzero = fac != 0.0
        rows = (rows[:, None, :] + cols[nonzero][None, :, :]).reshape(-1, n)
        prods = (prods[:, None] * fac[nonzero][None, :]).ravel()
    rank = lattice_rank(rows)
    order = np.argsort(rank, kind="stable")
    bounds = np.flatnonzero(np.diff(rank[order], prepend=-1, append=-1)).tolist()
    prods = prods[order].tolist()
    sums = [math.fsum(prods[a:b]) for a, b in zip(bounds, bounds[1:])]
    first = order[bounds[:-1]]
    rank = rank[first]
    poch = np.array([shifted_factorial(beta, d) for d in range(deg + 1)])
    coeff = np.array(sums) / poch[rows[first].sum(axis=1)]
    rank.flags.writeable = coeff.flags.writeable = False
    return rank, coeff


def meixner_eval(
    p: ModelParams, sd: SpectralData, m: MultiIndex, x: MultiIndex
) -> float:
    """P_m(x) by the terminating matrix sum at one point.

    The r with some r_i > x_i are skipped, since (-x_i)_{r_i} vanishes there.
    Each kept term is coeff_r * (-x_0)_{r_0} * (-x_1)_{r_1} * ..., formed
    left to right in Python floats with the factors (-x_i)_0 = 1 left out.
    Terms alternate in sign through the (-x_i) and (-m_j) shifted
    factorials, so each r bucket and the final sum over r go through fsum,
    which rounds once.
    """
    n = p.n
    if len(m) != n or len(x) != n:
        raise ValueError(f"m and x must have length {n}")
    deg = sum(m)
    rank, coeff = _row_sum_coeffs(p.beta, _u_columns(sd), tuple(m))
    # xfac[i][k] = (-x_i)_k, built as shifted_factorial builds it
    xfac = []
    for xi in x:
        fac = [1.0]
        for k in range(min(xi, deg)):
            fac.append(fac[-1] * (k - xi))
        xfac.append(fac)
    parts = _nonzero_parts(deg, n)
    terms = []
    # memoryview reads the cached arrays as Python ints and floats
    for k, term in zip(memoryview(rank), memoryview(coeff)):
        for i, ri in parts[k]:
            if ri > x[i]:
                break
            term *= xfac[i][ri]
        else:
            terms.append(term)
    return math.fsum(terms)


def pochhammer_table(kmax: int, vmax: int) -> np.ndarray:
    """T[k, v] = (-v)_k for 0 <= k <= kmax, 0 <= v <= vmax."""
    T = np.ones((kmax + 1, vmax + 1))
    v = np.arange(vmax + 1, dtype=float)
    for k in range(kmax):
        T[k + 1] = T[k] * (k - v)
    return T


# One row sum r of a merged table: its (i, r_i) with r_i > 0, the rows of the
# m whose lists hold r, and their coeff_r as a column.
_Group = tuple[tuple[tuple[int, int], ...], slice | np.ndarray, np.ndarray]

# Bytes of the arrays _sum_terms works on for one block of points (its sums,
# one term block and the gathered (-x_i)_k rows), and of V in _product_table;
# a table is built block by block so that its temporaries stay this small
# however many points it has.
_BLOCK_BYTES = 1 << 18


def _table_values(
    p: ModelParams,
    sd: SpectralData,
    m_list: Sequence[MultiIndex],
    X: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """P_m at every row of X (shape (npoints, n)) for every m of m_list, as
    an array of shape (len(m_list), npoints), written into `out` if given.

    Each row sum r of the m's coefficient lists is visited once, in
    graded-lex order, over the m that hold it (see _sum_terms).  Each m's
    terms are thus formed and added in its own list's order, from 0.0, so
    every value is the one a loop over that list alone would give, and does
    not depend on the other m or points.
    """
    groups = _merged_lists(p, sd, m_list)
    if out is None:
        out = np.empty((len(m_list), len(X)))
    if not groups or not len(X):
        out[...] = 0.0
        return out
    kmax = max(sum(m) for m in m_list)
    T = pochhammer_table(kmax, int(X.max()))
    step = max(1, _BLOCK_BYTES // (8 * (2 * len(m_list) + p.n * (kmax + 1))))
    for start in range(0, len(X), step):
        out[:, start:start + step] = _sum_terms(groups, len(m_list), T, X[start:start + step])
    return out


def _merged_lists(
    p: ModelParams, sd: SpectralData, m_list: Sequence[MultiIndex]
) -> list[_Group]:
    """The coefficient lists of m_list merged by row sum, one group per r in
    graded-lex order, its m in m_list order.  Each list's ranks slot its
    entries straight into their groups, so no list is sorted again."""
    if not m_list:
        return []
    # checked before the first list is built, as in _product_table
    max_deg = max(sum(m) for m in m_list)
    check_degree(max_deg, "degree |m|")
    lists = [_row_sum_coeffs(p.beta, _u_columns(sd), tuple(m)) for m in m_list]
    parts = _nonzero_parts(max_deg, p.n)
    counts = np.zeros(len(parts) + 1, dtype=np.intp)
    for rank, _ in lists:
        counts[rank + 1] += 1
    bounds = np.cumsum(counts)  # the entries of rank k fill bounds[k]:bounds[k+1]
    fill = bounds[:-1].copy()
    owner = np.empty(bounds[-1], dtype=np.intp)
    coeff = np.empty((bounds[-1], 1))
    for i, (rank, c) in enumerate(lists):
        slots = fill[rank]
        owner[slots] = i
        coeff[slots, 0] = c
        fill[rank] += 1
    ranks = np.flatnonzero(counts[1:])
    starts, ends = bounds[ranks], bounds[ranks + 1]
    first, last = owner[starts].tolist(), owner[ends - 1].tolist()
    # the rows of an r ascend and are mostly consecutive; a slice for them
    # lets numpy add in place instead of gathering and scattering
    return [
        (
            parts[r],
            slice(f, l + 1) if l - f == b - a - 1 else owner[a:b],
            coeff[a:b],
        )
        for r, a, b, f, l in zip(ranks.tolist(), starts.tolist(), ends.tolist(), first, last)
    ]


def _sum_terms(
    groups: list[_Group],
    nrows: int,
    T: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """The table rows of one block of points.  For each group of
    _merged_lists, the term block coeff_r * (-x_i)_{r_i} * ... is multiplied
    left to right and added into the rows of the m that hold r."""
    gathered = [T[:, X[:, i]] for i in range(X.shape[1])]
    acc = np.zeros((nrows, len(X)))
    for factors, rows, coef in groups:
        term = coef
        if factors:
            (i, k), *rest = factors
            term = coef * gathered[i][k]
            for i, k in rest:
                term *= gathered[i][k]
        acc[rows] += term
    return acc


def _product_table(
    p: ModelParams,
    sd: SpectralData,
    max_deg: int,
    X: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """P_m at every row of X (shape (npoints, n)) for every m of
    compositions_upto(max_deg, n) as one product P = C V, with C[m, r] the
    coeff_r of m's list and V[r, x] = prod_i (-x_i)_{r_i}; written into
    `out` if given.

    C is held as one block per degree |m| = d, over the r with |r| <= d (a
    graded-lex prefix), so it takes no more room than the lists.  A value
    multiplies coeff_r by the whole product V[r, x] rather than factor by
    factor, so it agrees with _table_values to rounding, not bit for bit.
    Each block of points has one fixed width, the last one padded with its
    last point: einsum then sees the same shapes in every call and, unlike a
    BLAS product, gives a column the same bits whatever the other columns
    hold, so no value depends on the other points or on the blocking.
    """
    check_degree(max_deg, "degree |m|")
    n, m_list, u = p.n, compositions_upto(max_deg, p.n), _u_columns(sd)
    blocks = []
    for d in range(max_deg + 1):
        first, last = math.comb(d - 1 + n, n) if d else 0, math.comb(d + n, n)
        C = np.zeros((last - first, last))
        for row, m in enumerate(m_list[first:last]):
            rank, coeff = _row_sum_coeffs(p.beta, u, m)
            C[row, rank] = coeff
        blocks.append((slice(first, last), C))
    if out is None:
        out = np.empty((len(m_list), len(X)))
    R = _composition_array(max_deg, n)
    T = pochhammer_table(max_deg, int(X.max(initial=0)))
    width = min(1024, max(16, _BLOCK_BYTES // (8 * len(m_list))))
    block = np.empty((len(m_list), width))
    for start in range(0, len(X), width):
        # clipped indices repeat the last point in the last block
        Xb = X.take(np.arange(start, start + width), axis=0, mode="clip")
        V = T.take(Xb[:, 0], axis=1).take(R[:, 0], axis=0)
        for i in range(1, n):
            V *= T.take(Xb[:, i], axis=1).take(R[:, i], axis=0)
        for rows, C in blocks:
            np.einsum("mr,rx->mx", C, V[:C.shape[1]], out=block[rows])
        out[:, start:start + width] = block[:, :len(X) - start]
    return out


def poly_values(
    p: ModelParams, sd: SpectralData, m: MultiIndex, X: np.ndarray
) -> np.ndarray:
    """P_m at every row of X (shape (npoints, n)), vectorized over points."""
    return _table_values(p, sd, (m,), X)[0]


# ---------------------------------------------------------------------------
# Route 2: generating-function expansion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _pair_table(n_vars: int, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of exponents (ka, kb) of compositions_upto(cap, n_vars)
    with |ka| + |kb| <= cap, as index arrays (ia, ib, k) into that tuple with
    k the index of ka + kb; ka outer, kb inner, both graded-lex."""
    K = _composition_array(cap, n_vars)
    # the kb with |kb| <= cap - |ka| are a graded-lex prefix of the exponents
    counts = np.array([math.comb(cap - d + n_vars, n_vars) for d in range(cap + 1)])[K.sum(axis=1)]
    ia = np.repeat(np.arange(len(K)), counts)
    ib = np.arange(len(ia)) - np.repeat(np.cumsum(counts) - counts, counts)
    return ia, ib, lattice_rank(K[ia] + K[ib])


def _inverse_factorials(n_vars: int, cap: int, scale: Sequence[float]) -> np.ndarray:
    """scale[|k|] / k_0! / k_1! / ... at every k of compositions_upto(cap,
    n_vars), divided left to right as a Python loop over k would."""
    K = _composition_array(cap, n_vars)
    out = np.array(scale)[K.sum(axis=1)]
    fact = np.array([float(math.factorial(k)) for k in range(cap + 1)])
    for i in range(n_vars):
        out /= fact[K[:, i]]
    return out


class TruncatedSeries:
    """Multivariate power series truncated at a total-degree cap.

    values holds the coefficient of t^k at each k of compositions_upto(cap,
    n_vars), in that graded-lex order.  All arithmetic stays below the cap,
    which keeps every coefficient up to the cap exact: discarded
    higher-order terms cannot feed back into lower degrees.
    """

    __slots__ = ("n_vars", "cap", "values")

    def __init__(self, n_vars: int, cap: int, values: np.ndarray | None = None):
        self.n_vars = n_vars
        self.cap = cap
        size = len(compositions_upto(cap, n_vars))
        self.values = np.zeros(size) if values is None else values

    @classmethod
    def geometric_power(cls, gamma: float, n_vars: int, cap: int) -> "TruncatedSeries":
        """(1 - t_1 - ... - t_n)^(-gamma): coefficient of t^k is (gamma)_{|k|}/k!."""
        poch = [shifted_factorial(gamma, s) for s in range(cap + 1)]
        return cls(n_vars, cap, _inverse_factorials(n_vars, cap, poch))

    @classmethod
    def affine_power(
        cls, b_row: Sequence[float], exponent: int, n_vars: int, cap: int
    ) -> "TruncatedSeries":
        """(1 - sum_j b_j t_j)^exponent for integer exponent >= 0 (finite binomial).

        The coefficient of t^k is C(exponent, |k|) (-1)^|k| |k|! * prod_j
        b_j^k_j / k_j!, multiplied left to right; a zero is stored as +0.0."""
        if exponent < 0:
            raise ValueError("affine_power needs a nonnegative integer exponent")
        top = min(exponent, cap)
        K = _composition_array(top, n_vars)
        c = np.array(
            [math.comb(exponent, s) * (-1.0) ** s * math.factorial(s) for s in range(top + 1)]
        )[K.sum(axis=1)]
        for j, bj in zip(range(n_vars), b_row):
            c *= np.array([bj**k / math.factorial(k) for k in range(top + 1)])[K[:, j]]
        out = cls(n_vars, cap)
        out.values[:len(c)] = np.where(c == 0.0, 0.0, c)
        return out

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The product below the cap.  Each coefficient sums its products
        va * vb from 0.0 in the pair table's order (np.bincount adds its
        weights in input order); a product with a zero coefficient is a
        signed zero, which leaves a finite sum as it is."""
        if (self.n_vars, self.cap) != (other.n_vars, other.cap):
            raise ValueError("series shape mismatch")
        ia, ib, k = _pair_table(self.n_vars, self.cap)
        values = np.bincount(k, weights=self.values[ia] * other.values[ib], minlength=len(self.values))
        return TruncatedSeries(self.n_vars, self.cap, values)


def genfun_series(
    p: ModelParams, sd: SpectralData, x: MultiIndex, cap: int
) -> TruncatedSeries:
    """Expansion of G(x; t) around t = 0 up to total degree `cap`;
    ParameterError if cap exceeds MAX_DEGREE."""
    check_degree(cap, "series cap")
    n = p.n
    series = TruncatedSeries.geometric_power(p.beta + sum(x), n, cap)
    b = sd.b
    for i in range(n):
        if x[i]:
            series = series * TruncatedSeries.affine_power(b[i], x[i], n, cap)
    return series


def genfun_all(
    p: ModelParams, sd: SpectralData, x: MultiIndex, max_deg: int
) -> dict[MultiIndex, float]:
    """All P_m(x) for |m| <= max_deg from a single expansion at x."""
    series = genfun_series(p, sd, x, max_deg)
    poch = [shifted_factorial(p.beta, s) for s in range(max_deg + 1)]
    values = series.values / _inverse_factorials(p.n, max_deg, poch)
    return dict(zip(compositions_upto(max_deg, p.n), values.tolist()))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyTable:
    """Dense table of P_m(x), graded-lex on both axes."""

    m_list: tuple[MultiIndex, ...]
    x_list: tuple[MultiIndex, ...]
    values: np.ndarray  # shape (len(m_list), len(x_list))

    def write_csv(self, path: str | Path) -> None:
        """Header row of x indices, first column of m indices, cells with 17
        significant digits (round-trip exact for doubles), written one row at
        a time so that only one line of text is held in memory.  A row is
        formatted by one %-operation over its Python floats, which gives the
        bytes f"{v:.17g}" gives per cell."""
        cells = ",".join(["%.17g"] * len(self.x_list))
        with Path(path).open("w") as fh:
            fh.write("m\\x," + ",".join(_fmt_midx(x) for x in self.x_list) + "\n")
            for m, row in zip(self.m_list, self.values):
                fh.write(_fmt_midx(m) + "," + cells % tuple(row.tolist()) + "\n")


def _fmt_midx(m: MultiIndex) -> str:
    return ":".join(str(v) for v in m)


def poly_table(
    p: ModelParams, sd: SpectralData, max_deg: int, S: int
) -> PolyTable:
    """P_m(x) for all |m| <= max_deg, |x| <= S."""
    m_list = tuple(compositions_upto(max_deg, p.n))
    x_list = tuple(enumerate_lattice(p.n, S))
    X = np.array(x_list, dtype=int)
    return PolyTable(m_list=m_list, x_list=x_list, values=_table_values(p, sd, m_list, X))
