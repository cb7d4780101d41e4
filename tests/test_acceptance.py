"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import BETAS, all_instances, instance, meixner_1d
from mvmeixner.bdprocess import (
    chapman_kolmogorov_check,
    compare_sim_spectral,
    orthogonality_check,
    simulate,
)
from mvmeixner.errors import DegenerateParameters
from mvmeixner.model import ModelParams, compositions_upto, enumerate_lattice
from mvmeixner.operators import (
    _htilde_at,
    eigen_check,
    genfun_identity_richardson,
    operator_algebra_report,
)
from mvmeixner.polynomials import genfun_all, meixner_eval
from mvmeixner.spectral import build_u, degenerate_spectrum, solve_spectrum


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({label}): {detail}")


def test_criterion_01_constraint_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for p, sd in all_instances():
        n, mass = p.n, p.c_mass
        for j in range(n):
            worst = max(
                worst,
                abs(sum(p.c[i] * sd.u[i][j] for i in range(n)) - (mass - 1)),
            )
            for k in range(j + 1, n):
                worst = max(
                    worst,
                    abs(
                        sum(p.c[i] * sd.u[i][j] * sd.u[i][k] for i in range(n))
                        - (mass - 1)
                    ),
                )
        assert all(cb > 0 for cb in sd.cbar)
        assert sum(sd.cbar) < 1.0
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, "constraints", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    for p, sd in all_instances():
        for x in enumerate_lattice(p.n, 6):
            via_series = genfun_all(p, sd, x, 4)
            for m, sval in via_series.items():
                mval = meixner_eval(p, sd, m, x)
                worst = max(worst, abs(mval - sval) / (1 + abs(mval)))
                pairs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and pairs >= 2000 and elapsed < 30.0
    report(2, "oracle equivalence", ok,
           f"max rel gap {worst:.2e} over {pairs} pairs, {elapsed:.1f}s")
    assert pairs >= 2000
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_03_eigen_equation():
    t0 = time.perf_counter()
    worst = 0.0
    for p, sd in all_instances():
        sample = enumerate_lattice(p.n, 10)
        for m in compositions_upto(3, p.n):
            worst = max(worst, eigen_check(p, sd, m, sample))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(3, "eigen-equation", ok, f"max residual {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_04_orthogonality():
    t0 = time.perf_counter()
    worst_off = 0.0
    worst_diag = 0.0
    for n in (1, 2):
        for beta in BETAS:
            p, sd = instance(n, beta)
            rep = orthogonality_check(p, sd, 3)
            worst_off = max(worst_off, rep.max_offdiag)
            worst_diag = max(worst_diag, rep.max_diag)
    elapsed = time.perf_counter() - t0
    ok = worst_off <= 1e-6 and worst_diag <= 1e-6 and elapsed < 60.0
    report(4, "orthogonality", ok,
           f"offdiag {worst_off:.2e}, diag {worst_diag:.2e}, {elapsed:.1f}s")
    assert worst_off <= 1e-6
    assert worst_diag <= 1e-6
    assert elapsed < 60.0


def test_criterion_05_operator_algebra():
    worst = {"symmetry_defect": 0.0, "factorization": 0.0, "H_sqrtW": 0.0}
    min_eig = math.inf
    for n in (1, 2):
        for beta in BETAS:
            p, _ = instance(n, beta)
            rep = operator_algebra_report(p, 10)
            for key in worst:
                worst[key] = max(worst[key], rep[key])
            min_eig = min(min_eig, rep["min_interior_eigenvalue"])
    ok = (
        worst["symmetry_defect"] == 0.0
        and worst["factorization"] <= 1e-12
        and worst["H_sqrtW"] <= 1e-10
        and min_eig >= -1e-8
    )
    report(5, "operator algebra", ok,
           f"sym {worst['symmetry_defect']:.1e}, fac {worst['factorization']:.2e}, "
           f"HsqrtW {worst['H_sqrtW']:.2e}, min eig {min_eig:.2e}")
    assert worst["symmetry_defect"] == 0.0
    assert worst["factorization"] <= 1e-12
    assert worst["H_sqrtW"] <= 1e-10
    assert min_eig >= -1e-8


def test_criterion_06_genfun_identity():
    # the right side is the exact t-derivative, so the residual sits at
    # rounding level, and eigenvalues 1e-6 too large must show above 1e-7
    rng = np.random.default_rng(2024)
    worst = 0.0
    worst_wrong = math.inf
    for p, sd in all_instances():
        wrong = replace(sd, lam=tuple(v * (1 + 1e-6) for v in sd.lam))
        lat = enumerate_lattice(p.n, 6)
        wrong_max = 0.0
        for _ in range(20):
            x = lat[rng.integers(len(lat))]
            t = rng.uniform(-0.08, 0.08, size=p.n)
            worst = max(worst, genfun_identity_richardson(p, sd, x, t)["residual"])
            wrong_max = max(wrong_max, genfun_identity_richardson(p, wrong, x, t)["residual"])
        worst_wrong = min(worst_wrong, wrong_max)
    ok = worst <= 1e-13 and worst_wrong > 1e-7
    report(6, "generating-function identity", ok,
           f"max residual {worst:.2e}, with lam * (1 + 1e-6) {worst_wrong:.2e}")
    assert worst <= 1e-13
    assert worst_wrong > 1e-7


def test_criterion_07_chapman_kolmogorov():
    t0 = time.perf_counter()
    p1 = ModelParams(1.0, (0.5,))
    from mvmeixner.spectral import solve

    res1 = chapman_kolmogorov_check(p1, solve(p1), (2,), (1,), 0.3, 0.3, 40, 25)
    p2, sd2 = instance(2, 1.5)
    res2 = chapman_kolmogorov_check(p2, sd2, (1, 0), (0, 1), 0.3, 0.3, 25, 12)
    elapsed = time.perf_counter() - t0
    worst = max(res1["residual"], res2["residual"])
    ok = worst <= 1e-5 and elapsed < 120.0
    report(7, "Chapman-Kolmogorov", ok,
           f"n=1 {res1['residual']:.2e}, n=2 {res2['residual']:.2e}, {elapsed:.1f}s")
    assert res1["residual"] <= 1e-5
    assert res2["residual"] <= 1e-5
    assert elapsed < 120.0


def test_criterion_08_simulator_vs_spectral():
    from mvmeixner.spectral import solve

    t0 = time.perf_counter()
    p1 = ModelParams(1.0, (0.5,))
    sim1 = simulate(p1, (0,), 1.0, 42, 200_000)
    rep1 = compare_sim_spectral(p1, solve(p1), sim1, 25)

    p2, sd2 = instance(2, 1.5)
    sim2 = simulate(p2, (0, 0), 1.0, 42, 200_000)
    rep2 = compare_sim_spectral(p2, sd2, sim2, 12)
    elapsed = time.perf_counter() - t0

    ok = (
        rep1.max_abs_z <= 4.0 and rep1.p_value > 1e-3
        and rep2.max_abs_z <= 4.0 and rep2.p_value > 1e-3
        and elapsed < 300.0
    )
    report(8, "simulator vs spectral", ok,
           f"n=1 max|z| {rep1.max_abs_z:.2f} p {rep1.p_value:.3f}; "
           f"n=2 max|z| {rep2.max_abs_z:.2f} p {rep2.p_value:.3f}; {elapsed:.0f}s")
    assert rep1.max_abs_z <= 4.0
    assert rep1.p_value > 1e-3
    assert rep2.max_abs_z <= 4.0
    assert rep2.p_value > 1e-3
    assert elapsed < 300.0


def test_criterion_09_degenerate_handling():
    c = 0.4
    p = ModelParams(1.0, (c, c))
    lam, mult = degenerate_spectrum(p)
    spectrum_gap = max(abs(lam[0] - (-2 + 1 / c)), abs(lam[1] - 1 / c))
    assert mult == (1, 1)

    with pytest.raises(DegenerateParameters, match="distinct"):
        build_u(p, lam)
    with pytest.raises(DegenerateParameters):
        solve_spectrum(p)

    f = lambda x: float(x[0] - x[1])
    points = enumerate_lattice(2, 9)[:20]
    exact = all(
        _htilde_at(p, x, f) == (x[0] - x[1]) / c for x in points
    )
    ok = spectrum_gap <= 1e-12 and exact
    report(9, "degenerate handling", ok,
           f"spectrum gap {spectrum_gap:.2e}, eigenfunction exact at "
           f"{len(points)} points: {exact}")
    assert spectrum_gap <= 1e-12
    assert exact


def test_criterion_10_single_variable_reduction():
    from mvmeixner.spectral import solve

    worst_poly = 0.0
    worst_lam = 0.0
    for beta in (0.7, 1.0, 1.5):
        for c in (0.3, 0.5, 0.7):
            p = ModelParams(beta, (c,))
            sd = solve(p)
            worst_lam = max(worst_lam, abs(sd.lam[0] - (1 - c) / c))
            for m in range(11):
                for x in range(11):
                    a = meixner_eval(p, sd, (m,), (x,))
                    b = meixner_1d(beta, c, m, x)
                    worst_poly = max(worst_poly, abs(a - b) / (1 + abs(b)))
    ok = worst_poly <= 1e-12 and worst_lam <= 1e-14
    report(10, "single-variable reduction", ok,
           f"poly gap {worst_poly:.2e}, lambda gap {worst_lam:.2e}")
    assert worst_poly <= 1e-12
    assert worst_lam <= 1e-14
