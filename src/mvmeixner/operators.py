"""Lattice difference operators: H, its factors A_j, H-tilde, and their
identities.

All of them act on functions over the truncated lattice {|x| <= S} in
graded-lex order.  Matrix couplings that would leave the truncation are
dropped (soft truncation), so identities are asserted at interior points
only; the infinite lattice has no boundary and we refuse to invent one.

The process moves x only to x +- e_j.  `_couplings` lists every such pair
x <-> x+e_j inside the truncation once, over the int lattice of
`model.lattice_points`, with the rates B(x) and D_j(x) and the entries of H
derived from them: the diagonal out_rate and one off-diagonal value v per
coupling.  `operator_algebra_report` runs every H-level check on that list,
with no N x N array and no eigensolver.  `build_H` and `build_A` write the
list into dense N x N arrays, N = C(S+n, n); only the tests and the
benchmark's tracer call them.

H-tilde is written once, in `_htilde`, as array code over a block of points
that reads values through a callable on point arrays: `eigen_check` hands it
P_m tabulated once and read by lattice position (`model.lattice_rank`, which
`_couplings` uses too), the generating-function identity the closed form
G(x; t).  Each point's value is the one a scalar loop over j gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import SingularGenfun
from .model import (
    ModelParams,
    MultiIndex,
    lattice_points,
    lattice_rank,
    weight_vector,
)
from .polynomials import poly_values
from .spectral import SpectralData

_SINGULAR_EPS = 1e-12


def _htilde(
    p: ModelParams, X: np.ndarray, f: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """(H-tilde f)(x) = (beta+|x|) sum_j (f(x) - f(x+e_j))
                       + sum_j (x_j/c_j) (f(x) - f(x-e_j))

    at every row x of the int array X (shape (N, n)); f maps an array of
    points to their values.  Each point's terms are added from 0.0 in the
    order j = 0, 1, ..., the birth term of j before its death term.  The
    death term is added only where x_j > 0, so the lattice boundary at zero
    is automatic.
    """
    fx = f(X)
    b = p.beta + X.sum(axis=1)
    unit = np.eye(p.n, dtype=X.dtype)
    out = np.zeros(len(X))
    for j in range(p.n):
        out += b * (fx - f(X + unit[j]))
        inner = X[:, j] > 0
        out[inner] += (X[inner, j] / p.c[j]) * (fx[inner] - f(X[inner] - unit[j]))
    return out


def _htilde_at(p: ModelParams, x: MultiIndex, g: Callable[[MultiIndex], float]) -> float:
    """(H-tilde g)(x) at one point, for g read one point at a time."""
    read = lambda Y: np.array([g(y) for y in map(tuple, Y.tolist())])
    return float(_htilde(p, np.array([x], dtype=np.int64), read)[0])


def eigen_check(
    p: ModelParams,
    sd: SpectralData,
    m: MultiIndex,
    sample: Iterable[MultiIndex],
) -> float:
    """max over sample of |H-tilde P_m - E(m) P_m| / (1 + |P_m|), E(m) = sum m_j lam_j;
    NaN if any residual is NaN.

    P_m is tabulated once on {|x| <= max |x| + 1}, and x and x +- e_j are
    read from the table at their lattice ranks."""
    X = np.array(list(sample), dtype=np.int64).reshape(-1, p.n)
    if not len(X):
        return 0.0
    S = int(X.sum(axis=1).max()) + 1
    lattice = lattice_points(p.n, 0, S)
    values = poly_values(p, sd, m, lattice)
    read = lambda Y: values[lattice_rank(Y)]
    fx = read(X)
    res = np.abs(_htilde(p, X, read) - sd.energy(m) * fx) / (1.0 + np.abs(fx))
    return float(res.max())  # NaN if any residual is NaN


# ---------------------------------------------------------------------------
# matrix realizations on the truncated lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Couplings:
    """Every coupling x <-> x+e_j inside {|x| <= S}, listed once as lattice
    positions a (of x) and b (of x+e_j) with direction j; the lattice X
    itself, an int array in graded-lex order; the positions `inner` of the
    interior points |x| < S, whose couplings all stayed inside; and the rates
    over the lattice: birth[x] = B(x) and death[x, j] = D_j(x).  H's entries
    are derived from those rates here and nowhere else: its diagonal
    out_rate and its off-diagonal v at each coupling."""

    X: np.ndarray
    a: np.ndarray
    b: np.ndarray
    j: np.ndarray
    inner: np.ndarray
    birth: np.ndarray
    death: np.ndarray

    @cached_property
    def out_rate(self) -> np.ndarray:
        """sum_j (B + D_j)(x) at every point, summed with math.fsum."""
        rows = (self.birth[:, None] + self.death).tolist()
        return np.array([math.fsum(row) for row in rows])

    @cached_property
    def v(self) -> np.ndarray:
        """H at (x, x+e_j) and at (x+e_j, x): -sqrt(B(x) D_j(x+e_j))."""
        return -np.sqrt(self.birth[self.a] * self.death[self.b, self.j])


def _couplings(p: ModelParams, S: int) -> _Couplings:
    X = lattice_points(p.n, 0, S)
    total = X.sum(axis=1)
    inner = np.flatnonzero(total < S)
    a = np.repeat(inner, p.n)
    j = np.tile(np.arange(p.n), len(inner))
    # row (a, j) of the shifted block is x+e_j at x = X[a]
    b = lattice_rank((X[inner, None, :] + np.eye(p.n, dtype=X.dtype)).reshape(-1, p.n))
    return _Couplings(X, a, b, j, inner, p.beta + total, X / np.asarray(p.c))


def _dense(
    diagonal: np.ndarray, *parts: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """Square array with this diagonal and the off-diagonal (rows, cols,
    values) parts; no position may repeat."""
    out = np.diag(diagonal)
    for rows, cols, values in parts:
        out[rows, cols] = values
    return out


def build_H(p: ModelParams, S: int) -> np.ndarray:
    """Symmetric H on {|x| <= S} as a dense N x N array, N = C(S+n, n):
    diagonal sum_j (B_j + D_j), off-diagonal -sqrt(B_j(x) D_j(x+e_j)) at
    x <-> x+e_j.  Both triangle entries are written from the same float, so
    the result is bitwise symmetric.  The package never forms H; only the
    tests and the benchmark's tracer call this."""
    k = _couplings(p, S)
    return _dense(k.out_rate, (k.a, k.b, k.v), (k.b, k.a, k.v))


def build_A(p: ModelParams, S: int, j: int) -> np.ndarray:
    """Factor A_j on {|x| <= S} as a dense N x N array, N = C(S+n, n):
    A_j[x, x] = sqrt(B_j(x)), A_j[x, x+e_j] = -sqrt(D_j(x+e_j)).  The
    package never forms A_j; only the tests and the benchmark's tracer call
    this."""
    k = _couplings(p, S)
    a, b = k.a[k.j == j], k.b[k.j == j]
    return _dense(np.sqrt(k.birth), (a, b, -np.sqrt(k.death[b, j])))


def operator_algebra_report(p: ModelParams, S: int) -> dict[str, float]:
    """All the H-level checks in one pass over one coupling list, with no
    N x N array:

    - symmetry_defect: max |H - H^T|, 0.0 by construction: both triangles
      of H are the one array v, so this records a property of the
      construction rather than measuring anything
    - factorization: max |H - sum A^T A| on interior rows, relative to
      1 + max |H| (the rounding floor scales with the rates)
    - H_sqrtW: max |H sqrt(W)| on interior rows, relative to ||sqrt(W)||
    - A_sqrtW: max over j of |A_j sqrt(W)| on interior rows
    - interior_eigenvalue_floor: a certified lower bound on the smallest
      eigenvalue of H's interior principal block, relative to 1 + max |H|
      (positive semi-definiteness of the truncated operator)

    The factors are read off the coupling list, without forming A_j: A_j is
    sqrt(B) on the diagonal and -sqrt(D_j(x+e_j)) at (x, x+e_j), so
    sum_j A_j^T A_j has H's pattern, with sum_j (sqrt(B)^2 + sqrt(D_j)^2)
    on an interior diagonal and -sqrt(B(x)) sqrt(D_j(x+e_j)) at each
    coupling, and (A_j sqrt(W))(x) = sqrt(B(x)) sqrt(W(x))
    - sqrt(D_j(x+e_j)) sqrt(W(x+e_j)).  H takes one square root of the
    product of the rates, the factors a product of two roots, so their
    agreement is a rounding-level check of the factorization, not a
    tautology.  H sqrt(W) is out_rate sqrt(W) plus v sqrt(W) gathered onto
    both ends of every coupling.

    The floor is Weyl's inequality.  On the interior block, H_in = G_in +
    E_in with G = sum_j A_j^T A_j positive semi-definite, and so is every
    principal block of it; E_in = H_in - G_in is the defect that
    `factorization` measures entry by entry.  So lambda_min(H_in) >=
    -||E_in||_2 >= -max_row sum |E_in|, the last step because E_in is
    symmetric.  The entries of E_in are formed in floats, so the floor is
    certified up to their rounding.  Relative to 1 + max |H|, it stays at
    rounding level however large the death rates x_j/c_j grow.
    """
    k = _couplings(p, S)
    N, inner, a, b, v = len(k.X), k.inner, k.a, k.b, k.v
    sqrt_w = np.sqrt(weight_vector(p, k.X))
    root_b, root_d = np.sqrt(k.birth), np.sqrt(k.death)

    diag = np.zeros(len(inner))
    for j in range(p.n):
        diag += root_b[inner] ** 2 + root_d[inner, j] ** 2
    cross = root_b[a] * root_d[b, k.j]
    defect_diag, defect_off = np.abs(k.out_rate[inner] - diag), np.abs(v + cross)
    scale = 1.0 + max(float(k.out_rate.max()), float(np.abs(v).max(initial=0.0)))

    # row sums of |E| over the interior block: a coupling lies in it when x+e_j does
    both = k.X[b].sum(axis=1) < S
    rows = (
        np.bincount(a[both], defect_off[both], N) + np.bincount(b[both], defect_off[both], N)
    )[inner] + defect_diag

    h_w = (
        k.out_rate * sqrt_w + np.bincount(a, v * sqrt_w[b], N) + np.bincount(b, v * sqrt_w[a], N)
    )[inner]
    a_w = root_b[a] * sqrt_w[a] - root_d[b, k.j] * sqrt_w[b]
    return {
        "symmetry_defect": 0.0,
        "factorization": float(np.concatenate([defect_diag, defect_off]).max()) / scale,
        "H_sqrtW": float(np.abs(h_w).max()) / float(np.linalg.norm(sqrt_w)),
        "A_sqrtW": float(np.abs(a_w).max()),
        "interior_eigenvalue_floor": -float(rows.max()) / scale,
    }


# ---------------------------------------------------------------------------
# generating-function eigen identity
# ---------------------------------------------------------------------------

def genfun_value(
    p: ModelParams, sd: SpectralData, x: MultiIndex, t: Sequence[float]
) -> float:
    """Closed-form G(x; t) = (1-|t|)^(-beta-|x|) prod_i (1 - sum_j b_ij t_j)^(x_i)."""
    tmass = math.fsum(t)
    base = 1.0 - tmass
    if base < _SINGULAR_EPS:
        raise SingularGenfun(f"1 - |t| = {base:.3e} at t={tuple(t)}")
    value = base ** (-(p.beta + sum(x)))
    b = sd.b
    for i in range(p.n):
        fac = 1.0 - math.fsum(b[i][j] * t[j] for j in range(p.n))
        if x[i] and abs(fac) < _SINGULAR_EPS:
            raise SingularGenfun(f"factor {i} of G vanishes at t={tuple(t)}")
        value *= fac ** x[i]
    return value


def genfun_identity_richardson(
    p: ModelParams, sd: SpectralData, x: MultiIndex, t: Sequence[float]
) -> dict[str, float]:
    """Residual of (H-tilde G)(x; t) = sum_k lam_k t_k dG/dt_k at one point,
    |lhs - rhs| / (1 + |lhs|).

    The left side applies the difference operator in x to the closed form;
    the right side takes the exact t-derivative of that closed form,
    dG/dt_k = G [(beta+|x|)/(1-|t|) - sum_i x_i b_ik / (1 - sum_j b_ij t_j)].
    """
    lhs = _htilde_at(p, x, lambda y: genfun_value(p, sd, y, t))
    n, b = p.n, sd.b
    factors = [1.0 - math.fsum(b[i][j] * t[j] for j in range(n)) for i in range(n)]
    dlog = [  # d log G / dt_k; a factor with x_i = 0 drops out
        (p.beta + sum(x)) / (1.0 - math.fsum(t))
        - math.fsum(x[i] * b[i][k] / factors[i] for i in range(n) if x[i])
        for k in range(n)
    ]
    rhs = genfun_value(p, sd, x, t) * math.fsum(sd.lam[k] * t[k] * dlog[k] for k in range(n))
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs) / (1.0 + abs(lhs))}
