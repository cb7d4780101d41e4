"""Lattice difference operators: H, its factors A_j, H-tilde, and their
identities.

All of them act on functions over the truncated lattice {|x| <= S} in
graded-lex order.  Matrix couplings that would leave the truncation are
dropped (soft truncation), so identities are asserted at interior points
only; the infinite lattice has no boundary and we refuse to invent one.

The process moves x only to x +- e_j.  `_couplings` lists every such pair
x <-> x+e_j inside the truncation once, with the rates B(x) and D_j(x) over
the lattice.  `build_H` and `build_A` write that one list into dense N x N
numpy arrays, N = C(S+n, n), so each holds N^2 floats.  The
package builds only H, in `operator_algebra_report` at S <= 10 (N = 3003 at
n = 5), and reads the factors A_j off the coupling list.  H-tilde is
written once, in `_htilde`, as array code over a block of points that reads
values through a callable on point arrays: `eigen_check` hands it P_m
tabulated once and read by lattice position (`model.lattice_rank`, which
`_couplings` uses too), the generating-function identity the closed form
G(x; t).  Each point's value is the one a scalar loop over j gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import SingularGenfun
from .model import (
    ModelParams,
    MultiIndex,
    enumerate_lattice,
    lattice_rank,
    weight_vector,
)
from .polynomials import poly_values
from .spectral import SpectralData

_SINGULAR_EPS = 1e-12


def birth_rate(p: ModelParams, x: MultiIndex) -> float:
    """B_j(x) = beta + |x|, identical for every direction j."""
    return p.beta + sum(x)


def death_rate(p: ModelParams, x: MultiIndex, j: int) -> float:
    """D_j(x) = x_j / c_j; vanishes at x_j = 0, which is the boundary condition."""
    return x[j] / p.c[j]


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
    lattice = np.array(enumerate_lattice(p.n, S), dtype=np.int64)
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
    positions a (of x) and b (of x+e_j) with direction j; the positions
    `inner` of the interior points |x| < S, whose couplings all stayed
    inside; and the rates over the lattice: birth[x] = B(x), death[x, j] =
    D_j(x) and out_rate[x] = sum_j (B + D_j)(x), summed with math.fsum."""

    a: np.ndarray
    b: np.ndarray
    j: np.ndarray
    inner: np.ndarray
    birth: np.ndarray
    death: np.ndarray
    out_rate: np.ndarray


def _couplings(p: ModelParams, S: int) -> _Couplings:
    X = np.array(enumerate_lattice(p.n, S), dtype=np.int64).reshape(-1, p.n)
    total = X.sum(axis=1)
    birth = p.beta + total
    death = X / np.asarray(p.c)
    out_rate = np.array(
        [math.fsum(row) for row in (birth[:, None] + death).tolist()]
    )
    inner = np.flatnonzero(total < S)
    a = np.repeat(inner, p.n)
    j = np.tile(np.arange(p.n), len(inner))
    # row (a, j) of the shifted block is x+e_j at x = X[a]
    b = lattice_rank((X[inner, None, :] + np.eye(p.n, dtype=X.dtype)).reshape(-1, p.n))
    return _Couplings(a, b, j, inner, birth, death, out_rate)


def _dense(
    diagonal: np.ndarray, *parts: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """Square array with this diagonal and the off-diagonal (rows, cols,
    values) parts; no position may repeat."""
    out = np.diag(diagonal)
    for rows, cols, values in parts:
        out[rows, cols] = values
    return out


def _H(k: _Couplings) -> np.ndarray:
    v = -np.sqrt(k.birth[k.a] * k.death[k.b, k.j])
    return _dense(k.out_rate, (k.a, k.b, v), (k.b, k.a, v))


def build_H(p: ModelParams, S: int) -> np.ndarray:
    """Symmetric H on {|x| <= S} as a dense N x N array, N = C(S+n, n):
    diagonal sum_j (B_j + D_j), off-diagonal -sqrt(B_j(x) D_j(x+e_j)) at
    x <-> x+e_j.  Both triangle entries are written from the same float, so
    the result is bitwise symmetric.  The package forms H only inside
    `operator_algebra_report`, which `verify` runs at S <= 10."""
    return _H(_couplings(p, S))


def build_A(p: ModelParams, S: int, j: int) -> np.ndarray:
    """Factor A_j on {|x| <= S} as a dense N x N array, N = C(S+n, n):
    A_j[x, x] = sqrt(B_j(x)), A_j[x, x+e_j] = -sqrt(D_j(x+e_j)).  The
    package reads these entries off the coupling list and never builds
    A_j."""
    k = _couplings(p, S)
    a, b = k.a[k.j == j], k.b[k.j == j]
    return _dense(np.sqrt(k.birth), (a, b, -np.sqrt(k.death[b, j])))


def operator_algebra_report(p: ModelParams, S: int) -> dict[str, float]:
    """All the H-level checks in one pass over one coupling list:

    - symmetry_defect: max |H - H^T| (must be exactly 0 by construction)
    - factorization: max |H - sum A^T A| on interior rows, relative to
      1 + max |H| (the rounding floor scales with the rates)
    - H_sqrtW: max |H sqrt(W)| on interior rows, relative to ||sqrt(W)||
    - A_sqrtW: max over j of |A_j sqrt(W)| on interior rows
    - min_interior_eigenvalue: smallest eigenvalue of the interior principal
      submatrix (positive semi-definiteness of the truncated operator)

    The factors are read off the coupling list, without forming A_j: A_j is
    sqrt(B) on the diagonal and -sqrt(D_j(x+e_j)) at (x, x+e_j), so
    sum_j A_j^T A_j has H's pattern, with sum_j (sqrt(B)^2 + sqrt(D_j)^2)
    on an interior diagonal and -sqrt(B(x)) sqrt(D_j(x+e_j)) at each
    coupling, and (A_j sqrt(W))(x) = sqrt(B(x)) sqrt(W(x))
    - sqrt(D_j(x+e_j)) sqrt(W(x+e_j)).  H takes one square root of the
    product of the rates, the factors a product of two roots, so their
    agreement is a rounding-level check of the factorization, not a
    tautology.
    """
    k = _couplings(p, S)
    H = _H(k)
    inner = k.inner
    sqrt_w = np.sqrt(weight_vector(p, enumerate_lattice(p.n, S)))
    root_b, root_d = np.sqrt(k.birth), np.sqrt(k.death)

    diag = np.zeros(len(inner))
    for j in range(p.n):
        diag += root_b[inner] ** 2 + root_d[inner, j] ** 2
    cross = root_b[k.a] * root_d[k.b, k.j]
    fac = np.abs(np.concatenate([k.out_rate[inner] - diag, H[k.a, k.b] + cross]))
    a_w = root_b[k.a] * sqrt_w[k.a] - root_d[k.b, k.j] * sqrt_w[k.b]
    h_w = float(np.abs((H @ sqrt_w)[inner]).max()) / float(
        np.linalg.norm(sqrt_w)
    )
    min_eig = float(np.linalg.eigvalsh(H[np.ix_(inner, inner)])[0])
    return {
        "symmetry_defect": float(np.abs(H - H.T).max()),
        "factorization": float(fac.max()) / (1.0 + float(np.abs(H).max())),
        "H_sqrtW": h_w,
        "A_sqrtW": float(np.abs(a_w).max()),
        "min_interior_eigenvalue": min_eig,
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
