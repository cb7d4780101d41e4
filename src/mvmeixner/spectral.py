"""Degree-1 eigenproblem: eigenvalues lambda, coupling matrix u, dual rates cbar.

The n eigenvalues are the roots of the secular equation

    sum_i c_i / (c_i * lam - 1) = -1,

equivalently the spectrum of the symmetric diagonal-minus-rank-one matrix
F_ij = -1 + delta_ij / c_i.  The secular form gives guaranteed brackets:
the function 1 + sum_i c_i/(c_i lam - 1) is strictly decreasing between
consecutive poles 1/c_i, so there is exactly one root below the smallest
pole and one in each gap between distinct poles.  A dense symmetric
eigensolve is available behind `cross_check` as an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation, DegenerateParameters
from .model import DEGENERACY_RTOL, ModelParams, _coincident, validate_params

# Bisection/Newton budget and the residual each root must meet.
BISECTION_STEPS = 80
NEWTON_STEPS = 3
SECULAR_TOL = 1e-12
# Constraint residuals above this indicate an upstream solver failure.
RESIDUAL_GATE = 1e-9


def characteristic_matrix(p: ModelParams) -> np.ndarray:
    """F(c) with F_ij = -1 + delta_ij / c_i (symmetric, diagonal minus all-ones)."""
    F = -np.ones((p.n, p.n))
    F[np.diag_indices(p.n)] += 1.0 / np.asarray(p.c)
    return F


def _secular(lam: float, cvals: tuple[float, ...], wts: tuple[float, ...]) -> float:
    return 1.0 + math.fsum(w / (cv * lam - 1.0) for cv, w in zip(cvals, wts))


def _secular_deriv(lam: float, cvals: tuple[float, ...], wts: tuple[float, ...]) -> float:
    return -math.fsum(w * cv / (cv * lam - 1.0) ** 2 for cv, w in zip(cvals, wts))


def _root_in_gap(lo: float, hi: float, cvals, wts) -> float:
    """One root of the weighted secular equation in the open interval (lo, hi).

    The function decreases from positive (or +inf at the left pole) to -inf
    at the right pole, so plain sign bisection cannot lose the bracket;
    Newton afterwards polishes to the double-precision floor.
    """
    span = hi - lo
    a = lo if lo == 0.0 else lo + span * 1e-15
    b = hi - span * 1e-15
    # nudges can overshoot a root hugging a pole; shrink until signs bracket
    shrink = 1e-15
    while _secular(a, cvals, wts) <= 0.0 and shrink > 1e-30:
        shrink *= 1e-3
        a = lo + span * shrink
    shrink = 1e-15
    while _secular(b, cvals, wts) >= 0.0 and shrink > 1e-30:
        shrink *= 1e-3
        b = hi - span * shrink
    a0, b0 = a, b
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if _secular(mid, cvals, wts) > 0.0:
            a = mid
        else:
            b = mid
    lam = 0.5 * (a + b)
    # Newton polish, guarded by the original gap: sign jitter of fl(f) at the
    # ulp level can collapse the bisection bracket to one side of the true
    # root (e.g. lam = 1 exactly at c = 0.5), so the collapsed bracket must
    # not confine the polish.
    for _ in range(NEWTON_STEPS):
        f = _secular(lam, cvals, wts)
        fp = _secular_deriv(lam, cvals, wts)
        if fp == 0.0:
            break
        step = lam - f / fp
        if a0 <= step <= b0 and abs(_secular(step, cvals, wts)) <= abs(f):
            lam = step
    return lam


def _gap_roots(cvals: tuple[float, ...], wts: tuple[float, ...]) -> list[float]:
    """All simple roots: one below the smallest pole, one per gap between poles."""
    order = sorted(range(len(cvals)), key=lambda i: 1.0 / cvals[i])
    poles = [1.0 / cvals[i] for i in order]
    cs = tuple(cvals[i] for i in order)
    ws = tuple(wts[i] for i in order)
    edges = [0.0] + poles
    return [_root_in_gap(edges[k], edges[k + 1], cs, ws) for k in range(len(poles))]


def solve_spectrum(p: ModelParams, cross_check: bool = False) -> tuple[float, ...]:
    """The n secular roots, sorted ascending.

    Raises DegenerateParameters for coincident c (the pole structure
    collapses; use degenerate_spectrum to get the root multiset).  With
    cross_check=True the roots are also compared against a dense symmetric
    eigensolve of F(c).
    """
    validate_params(p)
    if p.degenerate:
        raise DegenerateParameters(
            "coincident c values: secular pole gaps collapse; "
            "use degenerate_spectrum for the root multiset"
        )
    lam = sorted(_gap_roots(p.c, p.c))
    worst = max(abs(_secular(v, p.c, p.c)) for v in lam)
    if worst > SECULAR_TOL:
        raise ConstraintViolation(
            f"secular residual {worst:.3e} exceeds {SECULAR_TOL:.0e}"
        )
    if cross_check:
        dense = np.sort(np.linalg.eigvalsh(characteristic_matrix(p)))
        diff = float(np.max(np.abs(dense - np.asarray(lam))))
        if diff > 1e-9 * (1.0 + abs(lam[-1])):
            raise ConstraintViolation(
                f"secular roots disagree with dense eigensolve by {diff:.3e}"
            )
    return tuple(lam)


def _coincidence_groups(p: ModelParams) -> list[tuple[float, int]]:
    """Cluster the c values by the degeneracy tolerance: [(value, count), ...]."""
    groups: list[tuple[float, int]] = []
    for cv in sorted(p.c):
        if groups and _coincident(groups[-1][0], cv, DEGENERACY_RTOL):
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((cv, 1))
    return groups


def degenerate_spectrum(p: ModelParams) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Full root multiset for possibly coincident c: (lambdas, multiplicities).

    A group of k coincident values c contributes the pole 1/c as a root of
    multiplicity k-1; the remaining simple roots solve the reduced secular
    equation over distinct values with weights k*c.  Non-degenerate input
    passes through with all multiplicities equal to 1.
    """
    validate_params(p)
    groups = _coincidence_groups(p)
    cvals = tuple(g[0] for g in groups)
    wts = tuple(g[0] * g[1] for g in groups)
    roots = [(lam, 1) for lam in _gap_roots(cvals, wts)]
    roots += [(1.0 / cv, k - 1) for cv, k in groups if k >= 2]
    roots.sort()
    return tuple(r[0] for r in roots), tuple(r[1] for r in roots)


@dataclass(frozen=True)
class SpectralData:
    """Derived spectral data: lambda ascending, u and cbar, constraint residuals.

    Stored as nested tuples so instances are hashable; polynomial coefficient
    caches key on (beta, u) content.
    """

    lam: tuple[float, ...]
    u: tuple[tuple[float, ...], ...]
    cbar: tuple[float, ...]
    residuals: dict = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def b(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(1.0 - v for v in row) for row in self.u)

    def energy(self, m: tuple[int, ...]) -> float:
        """Linear spectrum: E(m) = sum_j m_j lambda_j."""
        return math.fsum(mj * lj for mj, lj in zip(m, self.lam))

    def to_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "u": [list(row) for row in self.u],
            "cbar": list(self.cbar),
            "residuals": dict(self.residuals),
        }


def build_u(p: ModelParams, lam: tuple[float, ...]) -> SpectralData:
    """Fill u_ij = lam_j / (lam_j - 1/c_i), b = 1 - u, and the dual rates cbar.

    Records the constraint residuals (secular relation, linear and quadratic
    u constraints, and the b-form of the linear one) and refuses to return
    data whose worst residual exceeds RESIDUAL_GATE.
    """
    validate_params(p)
    if p.degenerate:
        raise DegenerateParameters(
            "coincident c values: u_ij = lam_j/(lam_j - 1/c_i) is ill-defined "
            "at the pole; distinct parameters are required"
        )
    n = p.n
    if len(lam) != n:
        raise ValueError(f"expected {n} eigenvalues, got {len(lam)}")
    u = tuple(
        tuple(lam[j] / (lam[j] - 1.0 / p.c[i]) for j in range(n)) for i in range(n)
    )
    mass = p.c_mass

    secular_res = max(abs(_secular(v, p.c, p.c)) for v in lam)
    lin = max(
        abs(math.fsum(p.c[i] * u[i][j] for i in range(n)) - (mass - 1.0))
        for j in range(n)
    )
    quad = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            quad = max(
                quad,
                abs(
                    math.fsum(p.c[i] * u[i][j] * u[i][k] for i in range(n))
                    - (mass - 1.0)
                ),
            )
    blin = max(
        abs(math.fsum(p.c[i] * (1.0 - u[i][j]) for i in range(n)) - 1.0)
        for j in range(n)
    )

    cbar = []
    for j in range(n):
        denom = 1.0 - mass + math.fsum(p.c[i] * u[i][j] ** 2 for i in range(n))
        cbar.append((1.0 - mass) / denom)
    if min(cbar) <= 0:
        raise ConstraintViolation(f"nonpositive dual rate cbar: {cbar}")

    residuals = {
        "secular": secular_res,
        "u_linear": lin,
        "u_quadratic": quad,
        "b_linear": blin,
        "cbar_mass": math.fsum(cbar),
    }
    worst = max(secular_res, lin, quad, blin)
    if worst > RESIDUAL_GATE:
        raise ConstraintViolation(
            f"constraint residual {worst:.3e} exceeds gate {RESIDUAL_GATE:.0e}; "
            f"residuals={residuals}"
        )
    return SpectralData(lam=tuple(lam), u=u, cbar=tuple(cbar), residuals=residuals)


def solve(p: ModelParams, cross_check: bool = False) -> SpectralData:
    """solve_spectrum followed by build_u."""
    return build_u(p, solve_spectrum(p, cross_check=cross_check))
