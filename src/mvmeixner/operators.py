"""Lattice difference operators: L_BD, H, H-tilde, and their identities.

All three act on functions over the truncated lattice {|x| <= S} in
graded-lex order.  Matrix couplings that would leave the truncation are
dropped (soft truncation), so identities are asserted at interior points
only; the infinite lattice has no boundary and we refuse to invent one.

The process moves x only to x +- e_j.  `_couplings` lists every such pair
x <-> x+e_j inside the truncation once, with the rates B(x) and D_j(x) over
the lattice, and `build_H`, `build_A` and `build_LBD` are array expressions
over that one list.  H-tilde is written once, in `_htilde`, as array code
over a block of points that reads values through a callable on point
arrays: `eigen_check` hands it P_m tabulated once and read by mixed-radix
key (`_lattice_keys`, the index `_couplings` uses too), `apply_Htilde` a
tabulated lattice function, the generating-function identity the closed
form G(x; t).  Each point's value is the one a scalar loop over j gives.

scipy.sparse is imported inside the functions that build sparse matrices,
so that importing the package does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import SingularGenfun, TruncationBoundary
from .model import (
    ModelParams,
    MultiIndex,
    enumerate_lattice,
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


@dataclass
class LatticeFunction:
    """Function values on {|x| <= S}, the domain shifts read from."""

    S: int
    values: dict[MultiIndex, float]

    @classmethod
    def from_callable(
        cls, n: int, S: int, fn: Callable[[MultiIndex], float]
    ) -> "LatticeFunction":
        return cls(S=S, values={x: fn(x) for x in enumerate_lattice(n, S)})

    def __getitem__(self, x: MultiIndex) -> float:
        return self.values[x]


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


def apply_Htilde(p: ModelParams, f: LatticeFunction, x: MultiIndex) -> float:
    """(H-tilde f)(x) for f tabulated on {|x| <= S}; needs every x+e_j
    inside the truncation."""
    if sum(x) + 1 > f.S:
        raise TruncationBoundary(
            f"x={x} has |x|+1 > S={f.S}; apply at interior points only"
        )
    return _htilde_at(p, x, f.__getitem__)


def eigen_check(
    p: ModelParams,
    sd: SpectralData,
    m: MultiIndex,
    sample: Iterable[MultiIndex],
) -> float:
    """max over sample of |H-tilde P_m - E(m) P_m| / (1 + |P_m|), E(m) = sum m_j lam_j;
    NaN if any residual is NaN.

    P_m is tabulated once on {|x| <= max |x| + 1}, and x and x +- e_j are
    found in the table by their mixed-radix keys."""
    X = np.array(list(sample), dtype=np.int64).reshape(-1, p.n)
    if not len(X):
        return 0.0
    S = int(X.sum(axis=1).max()) + 1
    lattice = np.array(enumerate_lattice(p.n, S), dtype=np.int64)
    values = poly_values(p, sd, m, lattice)
    radix, key, order = _lattice_keys(lattice, S)
    read = lambda Y: values[order[np.searchsorted(key, Y @ radix, sorter=order)]]
    fx = read(X)
    res = np.abs(_htilde(p, X, read) - sd.energy(m) * fx) / (1.0 + np.abs(fx))
    return float(res.max())  # NaN if any residual is NaN


# ---------------------------------------------------------------------------
# matrix realizations on the truncated lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Couplings:
    """Every coupling x <-> x+e_j inside {|x| <= S}, listed once as lattice
    positions a (of x) and b (of x+e_j) with direction j, and the rates over
    the lattice: birth[x] = B(x), death[x, j] = D_j(x) and out_rate[x] =
    sum_j (B + D_j)(x), summed with math.fsum."""

    a: np.ndarray
    b: np.ndarray
    j: np.ndarray
    birth: np.ndarray
    death: np.ndarray
    out_rate: np.ndarray


def _lattice_keys(X: np.ndarray, S: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixed-radix keys of the points X (shape (N, n)) of {|x| <= S}:
    (radix, key, order) with radix[i] = (S+1)^i, key = X @ radix and order
    sorting key, so the row of a point y of X is
    order[searchsorted(key, y @ radix, sorter=order)].  The keys are Python
    ints where int64 would wrap."""
    n = X.shape[1]
    wide = (S + 1) ** n > np.iinfo(np.int64).max
    radix = np.array([(S + 1) ** i for i in range(n)], dtype=object if wide else np.int64)
    key = X @ radix
    return radix, key, np.argsort(key, kind="stable")


def _couplings(p: ModelParams, S: int) -> _Couplings:
    X = np.array(enumerate_lattice(p.n, S), dtype=np.int64).reshape(-1, p.n)
    total = X.sum(axis=1)
    birth = p.beta + total
    death = X / np.asarray(p.c)
    out_rate = np.array(
        [math.fsum(row) for row in (birth[:, None] + death).tolist()]
    )
    # x+e_j is found by its mixed-radix key, key(x) + (S+1)^j
    radix, key, order = _lattice_keys(X, S)
    inner = np.flatnonzero(total < S)
    a = np.repeat(inner, p.n)
    j = np.tile(np.arange(p.n), len(inner))
    b = order[np.searchsorted(key, key[a] + radix[j], sorter=order)]
    return _Couplings(a, b, j, birth, death, out_rate)


def _csr(
    diagonal: np.ndarray, *parts: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> sp.csr_matrix:
    """Square CSR matrix with this diagonal and the off-diagonal
    (rows, cols, values) parts; no position may repeat."""
    import scipy.sparse as sp

    size = len(diagonal)
    diag = np.arange(size)
    rows, cols, vals = (
        np.concatenate(k) for k in zip((diag, diag, diagonal), *parts)
    )
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def build_H(p: ModelParams, S: int) -> sp.csr_matrix:
    """Symmetric H on {|x| <= S}: diagonal sum_j (B_j + D_j), off-diagonal
    -sqrt(B_j(x) D_j(x+e_j)) at x <-> x+e_j.  Both triangle entries are
    written from the same float, so the result is bitwise symmetric."""
    k = _couplings(p, S)
    v = -np.sqrt(k.birth[k.a] * k.death[k.b, k.j])
    return _csr(k.out_rate, (k.a, k.b, v), (k.b, k.a, v))


def build_A(p: ModelParams, S: int, j: int) -> sp.csr_matrix:
    """Factor A_j on {|x| <= S}: A_j[x, x] = sqrt(B_j(x)),
    A_j[x, x+e_j] = -sqrt(D_j(x+e_j))."""
    k = _couplings(p, S)
    a, b = k.a[k.j == j], k.b[k.j == j]
    return _csr(np.sqrt(k.birth), (a, b, -np.sqrt(k.death[b, j])))


def build_LBD(p: ModelParams, S: int) -> sp.csr_matrix:
    """Generator acting on distributions: (L P)(x) = -sum_j (B_j + D_j)(x) P(x)
    + sum_j B_j(x-e_j) P(x-e_j) + sum_j D_j(x+e_j) P(x+e_j), soft-truncated."""
    k = _couplings(p, S)
    return _csr(
        -k.out_rate, (k.b, k.a, k.birth[k.a]), (k.a, k.b, k.death[k.b, k.j])
    )


def interior_mask(n: int, S: int) -> np.ndarray:
    """True where |x| <= S-1, i.e. every x+e_j coupling stayed inside."""
    return np.array([sum(x) + 1 <= S for x in enumerate_lattice(n, S)])


def _factorization_defect(
    H: sp.csr_matrix, factors: Sequence[sp.csr_matrix], inner: np.ndarray
) -> float:
    """max |H - sum_j A_j^T A_j| over the rows where inner is True."""
    import scipy.sparse as sp

    acc = sp.csr_matrix(H.shape)
    for A in factors:
        acc = acc + A.T @ A
    diff = (H - acc).toarray()
    return float(np.abs(diff[inner]).max())


def factorization_check(p: ModelParams, S: int) -> float:
    """max |H - sum_j A_j^T A_j| over interior rows.

    H multiplies the rates under one square root, the A route takes two;
    agreement is therefore a rounding-level check of the factorization, not
    a tautology.
    """
    factors = [build_A(p, S, j) for j in range(p.n)]
    return _factorization_defect(build_H(p, S), factors, interior_mask(p.n, S))


def operator_algebra_report(p: ModelParams, S: int) -> dict[str, float]:
    """All the H-level checks in one pass:

    - symmetry_defect: max |H - H^T| (must be exactly 0 by construction)
    - factorization: max |H - sum A^T A| on interior rows
    - H_sqrtW: max |H sqrt(W)| on interior rows, relative to ||sqrt(W)||
    - A_sqrtW: max over j of |A_j sqrt(W)| on interior rows
    - min_interior_eigenvalue: smallest eigenvalue of the interior principal
      submatrix (positive semi-definiteness of the truncated operator)
    """
    H = build_H(p, S)
    factors = [build_A(p, S, j) for j in range(p.n)]
    lat = enumerate_lattice(p.n, S)
    inner = interior_mask(p.n, S)
    sqrt_w = np.sqrt(weight_vector(p, lat))

    sym = float(np.abs((H - H.T).toarray()).max())
    fac = _factorization_defect(H, factors, inner)
    h_w = float(np.abs((H @ sqrt_w)[inner]).max()) / float(
        np.linalg.norm(sqrt_w)
    )
    a_w = max(float(np.abs((A @ sqrt_w)[inner]).max()) for A in factors)
    sub = H.toarray()[np.ix_(inner, inner)]
    min_eig = float(np.linalg.eigvalsh(sub)[0])
    return {
        "symmetry_defect": sym,
        "factorization": fac,
        "H_sqrtW": h_w,
        "A_sqrtW": a_w,
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


def _scaling_deriv_fd(
    p: ModelParams, sd: SpectralData, x: MultiIndex, t: Sequence[float], h: float
) -> float:
    """sum_k lam_k t_k dG/dt_k by central differences with step h."""
    out = 0.0
    for k in range(p.n):
        if t[k] == 0.0:
            continue
        tp = list(t)
        tm = list(t)
        tp[k] += h
        tm[k] -= h
        deriv = (genfun_value(p, sd, x, tp) - genfun_value(p, sd, x, tm)) / (2 * h)
        out += sd.lam[k] * t[k] * deriv
    return out


def genfun_identity_richardson(
    p: ModelParams,
    sd: SpectralData,
    x: MultiIndex,
    t: Sequence[float],
    h: float = 1e-5,
) -> dict[str, float]:
    """Residual of (H-tilde G)(x; t) = sum_k lam_k t_k dG/dt_k at one point.

    The left side applies the difference operator in x to the closed form;
    the right side is a central-difference derivative in t at steps h and
    h/2 (residual_h, residual_h2) and their Richardson extrapolation
    (residual).  Each one-step residual is O(h^2) when the identity holds,
    so residual_h / residual_h2 near 4 confirms the scaling.
    """
    lhs = _htilde_at(p, x, lambda y: genfun_value(p, sd, y, t))
    rhs_h = _scaling_deriv_fd(p, sd, x, t, h)
    rhs_h2 = _scaling_deriv_fd(p, sd, x, t, h / 2)
    rich = (4.0 * rhs_h2 - rhs_h) / 3.0
    return {
        "lhs": lhs,
        "residual_h": abs(lhs - rhs_h),
        "residual_h2": abs(lhs - rhs_h2),
        "residual": abs(lhs - rich),
    }
