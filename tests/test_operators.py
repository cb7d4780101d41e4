import math
import random
import tracemalloc
import unittest.mock
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_instances,
    birth_rate,
    death_rate,
    instance,
    lattice_index,
    series_coefficient,
    unit_shift,
)
from mvmeixner import operators
from mvmeixner.cli import H_ZERO_MODE_TOL, SPECTRUM_FLOOR
from mvmeixner.errors import SingularGenfun
from mvmeixner.model import (
    ModelParams,
    compositions_upto,
    enumerate_lattice,
    weight_vector,
)
from mvmeixner.operators import (
    _couplings,
    _dense,
    _htilde_at,
    build_A,
    build_H,
    eigen_check,
    genfun_identity_richardson,
    genfun_value,
    operator_algebra_report,
)
from mvmeixner.polynomials import poly_values
from mvmeixner.spectral import solve


def build_LBD(p, S):
    """Generator acting on distributions, as a dense N x N array,
    N = C(S+n, n): (L P)(x) = -sum_j (B_j + D_j)(x) P(x)
    + sum_j B_j(x-e_j) P(x-e_j) + sum_j D_j(x+e_j) P(x+e_j), soft-truncated;
    written from the package's coupling list, as build_H writes H."""
    k = _couplings(p, S)
    return _dense(-k.out_rate, (k.b, k.a, k.birth[k.a]), (k.a, k.b, k.death[k.b, k.j]))


def poly_lattice_function(p, sd, m, S):
    """P_m tabulated on {|x| <= S}, as a dict from point to value."""
    lat = enumerate_lattice(p.n, S)
    vals = poly_values(p, sd, m, np.array(lat, dtype=int))
    return dict(zip(lat, vals.tolist()))


# ---------------------------------------------------------------------------
# H-tilde as the point-by-point loop it was before it became array code over
# a block of points, kept as the oracle: the array form must reproduce it bit
# for bit.
# ---------------------------------------------------------------------------

def _oracle_htilde(p, x, f):
    fx = f(x)
    b = birth_rate(p, x)
    out = 0.0
    for j in range(p.n):
        out += b * (fx - f(unit_shift(x, j, +1)))
        if x[j]:
            out += death_rate(p, x, j) * (fx - f(unit_shift(x, j, -1)))
    return out


def _oracle_eigen_check(p, sd, m, sample):
    sample = list(sample)
    if not sample:
        return 0.0
    f = poly_lattice_function(p, sd, m, max(sum(x) for x in sample) + 1)
    energy = sd.energy(m)
    worst = 0.0
    for x in sample:
        fx = f[x]
        res = abs(_oracle_htilde(p, x, f.__getitem__) - energy * fx) / (1.0 + abs(fx))
        worst = max(worst, res)
    return worst


@lru_cache(maxsize=None)
def _sets(n):
    """Two (p, sd) draws at dimension n, the rates at least 1.5-fold apart."""
    rng = random.Random(70 + n)
    out = []
    for _ in range(2):
        beta = math.exp(rng.uniform(math.log(0.3), math.log(5.0)))
        parts = [rng.uniform(1.0, 2.0) * 3.0**i for i in range(n)]
        mass = rng.uniform(0.2, 0.9)
        p = ModelParams(beta, [mass * v / sum(parts) for v in parts])
        out.append((p, solve(p)))
    return out


def _same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestHtildeOracle:
    """eigen_check and _htilde_at against the scalar loop, with == and
    equal signs, over n = 1-4 with points on the boundary x_j = 0."""

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_eigen_check_matches_scalar_loop(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        p, sd = data.draw(st.sampled_from(_sets(n)), label="set")
        m = data.draw(st.sampled_from(compositions_upto(3, n)), label="m")
        lattice = enumerate_lattice(n, 6 if n < 4 else 4)
        sample = data.draw(st.lists(st.sampled_from(lattice), min_size=1, max_size=30), label="sample")
        assert _same_bits(eigen_check(p, sd, m, sample), _oracle_eigen_check(p, sd, m, sample))

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_apply_htilde_matches_scalar_loop(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        p, _ = data.draw(st.sampled_from(_sets(n)), label="set")
        S = data.draw(st.integers(1, 5), label="S")
        lattice = enumerate_lattice(n, S)
        values = st.lists(
            st.floats(-1e3, 1e3, allow_subnormal=False), min_size=len(lattice), max_size=len(lattice)
        )
        f = dict(zip(lattice, data.draw(values, label="f")))
        x = data.draw(st.sampled_from(enumerate_lattice(n, S - 1)), label="x")
        assert _same_bits(_htilde_at(p, x, f.__getitem__), _oracle_htilde(p, x, f.__getitem__))


class TestApplyHtilde:
    def test_kills_constants(self):
        for p, _ in all_instances():
            for x in enumerate_lattice(p.n, 5):
                assert _htilde_at(p, x, lambda y: 1.0) == 0.0

    def test_degree_one_eigenfunction(self):
        for p, sd in all_instances():
            for j in range(p.n):
                m = tuple(1 if k == j else 0 for k in range(p.n))
                f = poly_lattice_function(p, sd, m, 7)
                for x in enumerate_lattice(p.n, 6):
                    got = _htilde_at(p, x, f.__getitem__)
                    assert got == pytest.approx(sd.lam[j] * f[x], rel=1e-10, abs=1e-10)

    def test_coincident_rates_difference_eigenfunction(self):
        # c_1 = c_2 = c: x_1 - x_2 is an exact eigenfunction with eigenvalue 1/c
        c = 0.4
        p = ModelParams(1.0, (c, c))
        for x in enumerate_lattice(2, 8):
            assert _htilde_at(p, x, lambda y: float(y[0] - y[1])) == (x[0] - x[1]) / c


class TestEigenCheck:
    def test_zero_mode_exact(self):
        p, sd = instance(2, 1.5)
        assert eigen_check(p, sd, (0, 0), enumerate_lattice(2, 8)) == 0.0

    @pytest.mark.parametrize("m", [(1, 0), (0, 1)])
    def test_degree_one(self, m):
        p, sd = instance(2, 0.7)
        assert eigen_check(p, sd, m, enumerate_lattice(2, 10)) <= 1e-10

    def test_degree_three_all_instances(self):
        from mvmeixner.model import compositions_upto

        for p, sd in all_instances():
            sample = enumerate_lattice(p.n, 8)
            for m in compositions_upto(3, p.n):
                assert eigen_check(p, sd, m, sample) <= 1e-8

    def test_n2_mixed_degree(self):
        p, sd = instance(2, 1.5)
        assert eigen_check(p, sd, (2, 1), enumerate_lattice(2, 10)) <= 1e-8

    @pytest.mark.parametrize("at", [0, 7, 40])
    def test_nan_value_reported(self, at):
        # one NaN in the tabulated P_m, at x, at some x - e_j or at some
        # x + e_j: max() would have dropped it
        p, sd = instance(2, 1.5)
        real = operators.poly_values

        def poisoned(*args):
            values = real(*args)
            values[at] = math.nan
            return values

        with unittest.mock.patch.object(operators, "poly_values", poisoned):
            assert math.isnan(eigen_check(p, sd, (1, 1), enumerate_lattice(2, 10)))

    # Sets from the library sweep (perfbench/sweep.py, seeds 14 and 22) with
    # one tiny rate: lambda_j - 1/c_i cancels near the pole 1/c_i, and the
    # residuals reach 4.6e-8 and 1.2e-8.  Route 1 agrees with route 2 at both.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize(
        "beta,c",
        [
            (2.0388549353664196, (6.646924521892182e-05, 0.6520200550897901)),
            (0.8307026204332888, (0.0002901449994189801, 0.18227756026080527, 0.6843242877176497)),
        ],
        ids=["sweep-seed14", "sweep-seed22"],
    )
    def test_eigen_near_pole_tiny_c(self, beta, c):
        from mvmeixner.model import compositions_upto
        from mvmeixner.spectral import solve

        p = ModelParams(beta, c)
        sd = solve(p, cross_check=True)
        sample = enumerate_lattice(p.n, 10)
        assert max(eigen_check(p, sd, m, sample) for m in compositions_upto(3, p.n)) <= 1e-8


def reference_matrices(p, S):
    """Dense H, [A_j] and L_BD on {|x| <= S}, assembled point by point from
    the rates, boundary rows |x| = S included."""
    idx = lattice_index(p.n, S)
    N = len(idx)
    H, L = np.zeros((N, N)), np.zeros((N, N))
    A = [np.zeros((N, N)) for _ in range(p.n)]
    for x, i in idx.items():
        out = math.fsum(birth_rate(p, x) + death_rate(p, x, j) for j in range(p.n))
        H[i, i], L[i, i] = out, -out
        for j in range(p.n):
            A[j][i, i] = math.sqrt(birth_rate(p, x))
            if x[j]:
                y = unit_shift(x, j, -1)
                L[i, idx[y]] = birth_rate(p, y)
            if sum(x) < S:
                y = unit_shift(x, j, +1)
                k = idx[y]
                H[i, k] = H[k, i] = -math.sqrt(birth_rate(p, x) * death_rate(p, y, j))
                A[j][i, k] = -math.sqrt(death_rate(p, y, j))
                L[i, k] = death_rate(p, y, j)
    return H, A, L


def interior(n, S):
    """True at the x with |x| < S, whose couplings x <-> x+e_j all stayed
    inside {|x| <= S}."""
    return np.array([sum(x) < S for x in enumerate_lattice(n, S)])


MATRIX_SETS = [
    (1.0, (0.5,), 12),
    (1.5, (0.2, 0.3), 10),
    (0.7, (0.1, 0.15, 0.2), 8),
    (2.0, (0.05, 0.1, 0.2, 0.3), 5),
    # (S+1)^n = 2^64: the lattice keys no longer fit in int64
    (0.9, tuple(0.9 * k / 2080 for k in range(1, 65)), 1),
]


class TestMatrixOperators:
    @pytest.mark.parametrize("beta, c, S", MATRIX_SETS)
    def test_matrices_equal_pointwise_assembly(self, beta, c, S):
        p = ModelParams(beta, c)
        H, A, L = reference_matrices(p, S)
        boundary = np.array([sum(x) == S for x in enumerate_lattice(p.n, S)])
        # the boundary rows keep their diagonal and their couplings to x-e_j
        assert np.count_nonzero(H[boundary]) > boundary.sum()
        assert np.array_equal(build_H(p, S), H)
        assert np.array_equal(build_LBD(p, S), L)
        for j in range(p.n):
            assert np.array_equal(build_A(p, S, j), A[j])

    def test_algebra_report_reads_one_coupling_list(self, monkeypatch):
        p = ModelParams(1.5, (0.1, 0.15, 0.2))
        calls = []
        real = operators._couplings
        monkeypatch.setattr(
            operators, "_couplings", lambda p, S: calls.append(S) or real(p, S)
        )
        monkeypatch.setattr(operators, "build_A", lambda *args: calls.append("A"))
        assert operator_algebra_report(p, 6)["factorization"] <= 1e-12
        assert calls == [6]

    @pytest.mark.parametrize("beta, c, S", MATRIX_SETS)
    def test_report_factors_equal_dense_products(self, beta, c, S):
        # sum_j A_j^T A_j and A_j sqrt(W) from the dense factors, each product
        # rounded before the sum (a BLAS product may fuse the multiply-add)
        p = ModelParams(beta, c)
        H, A, _ = reference_matrices(p, S)
        inner = interior(p.n, S)
        sqrt_w = np.sqrt(weight_vector(p, enumerate_lattice(p.n, S)))
        gram = np.zeros_like(H)
        for Aj in A:
            gram = gram + (Aj[:, :, None] * Aj[:, None, :]).sum(axis=0)
        a_w = max(np.abs((Aj * sqrt_w).sum(axis=1))[inner].max() for Aj in A)
        rep = operator_algebra_report(p, S)
        scale = 1.0 + np.abs(H).max()
        assert rep["factorization"] == np.abs(H - gram)[inner].max() / scale
        assert rep["A_sqrtW"] == a_w

    def test_h_bitwise_symmetric(self):
        for p, _ in (instance(1, 1.0), instance(2, 1.5)):
            H = build_H(p, 8)
            assert np.array_equal(H, H.T)

    def test_factorization(self):
        assert operator_algebra_report(ModelParams(1.0, (0.5,)), 5)["factorization"] <= 1e-12
        assert operator_algebra_report(ModelParams(1.5, (0.2, 0.3)), 6)["factorization"] <= 1e-12

    def test_algebra_report(self):
        p, _ = instance(2, 1.5)
        rep = operator_algebra_report(p, 8)
        assert rep["symmetry_defect"] == 0.0
        assert rep["factorization"] <= 1e-12
        assert rep["H_sqrtW"] <= 1e-10
        assert rep["A_sqrtW"] <= 1e-10
        assert rep["interior_eigenvalue_floor"] >= -1e-8

    # the tiny rate's death rates reach 1e9: an absolute floor reads -6.0e-8
    # there, while the smallest interior eigenvalue is +3.6e-2
    @pytest.mark.parametrize("beta, c, S", MATRIX_SETS + [(1.5, (1e-8, 0.6), 10)])
    def test_floor_is_below_interior_eigenvalue(self, beta, c, S):
        p = ModelParams(beta, c)
        H = build_H(p, S)
        inner = interior(p.n, S)
        floor = operator_algebra_report(p, S)["interior_eigenvalue_floor"]
        assert floor * (1.0 + np.abs(H).max()) <= np.linalg.eigvalsh(H[np.ix_(inner, inner)])[0]
        assert -floor <= SPECTRUM_FLOOR

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda p, k: replace(k, death=k.X * np.asarray(p.c)),  # x_j c_j for x_j / c_j
            lambda p, k: replace(k, birth=p.beta + k.X.sum(axis=1) / 2),  # beta + |x|/2
        ],
        ids=["death-times-c", "half-birth"],
    )
    def test_zero_mode_sees_wrong_rates(self, monkeypatch, wrong):
        # H and its factors read the same rates, so only H sqrt(W) = 0 ties
        # them to W; H's entries are derived from the replaced rates
        real = operators._couplings
        monkeypatch.setattr(operators, "_couplings", lambda p, S: wrong(p, real(p, S)))
        for beta, c in ((1.5, (0.2, 0.3)), (1.0, (0.5,)), (1.5, (0.1, 0.15, 0.2))):
            assert operator_algebra_report(ModelParams(beta, c), 10)["H_sqrtW"] > H_ZERO_MODE_TOL

    def test_report_forms_no_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix or eigensolver used")

        for name in ("eigvalsh", "eigh", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(operators, "_dense", refuse)
        rep = operator_algebra_report(ModelParams(1.5, (0.1, 0.15, 0.2)), 10)
        assert rep["interior_eigenvalue_floor"] >= -SPECTRUM_FLOOR

    def test_report_memory_n5(self):
        # N = 3003 points: a dense H alone is 72 MB, and the report with H,
        # H - H^T and eigvalsh peaked at 207 MB
        p = ModelParams(1.5, (0.04, 0.06, 0.08, 0.1, 0.12))
        operator_algebra_report(p, 10)  # warm the lattice tables
        tracemalloc.start()
        try:
            operator_algebra_report(p, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_similarity_with_htilde(self):
        # W^(-1/2) H W^(1/2) acts like the difference operator on random polys
        p, sd = instance(2, 1.5)
        S = 9
        lat = enumerate_lattice(2, S)
        sqrt_w = np.sqrt(weight_vector(p, lat))
        H = build_H(p, S)
        rng = np.random.default_rng(5)
        coef = rng.standard_normal(3)
        f = lambda x: 1.0 + coef[0] * x[0] + coef[1] * x[1] + coef[2] * x[0] * x[1]
        fvec = np.array([f(x) for x in lat])
        via_matrix = (H @ (sqrt_w * fvec)) / sqrt_w
        for k, x in enumerate(lat):
            if sum(x) + 1 <= S:
                direct = _htilde_at(p, x, f)
                assert via_matrix[k] == pytest.approx(
                    direct, rel=1e-9, abs=1e-9 * (1 + abs(direct))
                )

    def test_lbd_similarity_and_conservation(self):
        p, _ = instance(2, 0.7)
        S = 8
        lat = enumerate_lattice(2, S)
        inner = interior(2, S)
        L = build_LBD(p, S)
        H = build_H(p, S)
        sqrt_w = np.sqrt(weight_vector(p, lat))
        rng = np.random.default_rng(6)
        g = rng.standard_normal(len(lat))
        lhs = -(L @ (sqrt_w * g)) / sqrt_w
        rhs = H @ g
        scale = np.abs(rhs[inner]).max()
        assert np.abs((lhs - rhs)[inner]).max() <= 1e-9 * scale
        col_sums = L.sum(axis=0)
        assert np.abs(col_sums[inner]).max() <= 1e-12

    def test_zero_modes(self):
        p, _ = instance(1, 1.0)
        S = 12
        lat = enumerate_lattice(1, S)
        inner = interior(1, S)
        sqrt_w = np.sqrt(weight_vector(p, lat))
        H = build_H(p, S)
        assert np.abs((H @ sqrt_w)[inner]).max() <= 1e-10 * np.linalg.norm(sqrt_w)
        for j in range(p.n):
            A = build_A(p, S, j)
            assert np.abs((A @ sqrt_w)[inner]).max() <= 1e-10


class TestGenfunIdentity:
    def test_t_zero_trivial(self):
        # G(x; 0) = 1 for every x, and no t_k contributes a derivative term
        p, sd = instance(2, 1.5)
        res = genfun_identity_richardson(p, sd, (2, 1), (0.0, 0.0))
        assert res["lhs"] == res["rhs"] == res["residual"] == 0.0

    def test_single_variable(self):
        # n=1: dG/dt = G [(beta+x)/(1-t) - x b/(1-b t)] in closed form
        p, sd = instance(1, 1.0)
        res = genfun_identity_richardson(p, sd, (2,), (0.1,))
        b = sd.b[0][0]
        G = genfun_value(p, sd, (2,), (0.1,))
        deriv = G * ((p.beta + 2) / 0.9 - 2 * b / (1 - 0.1 * b))
        assert res["rhs"] == pytest.approx(sd.lam[0] * 0.1 * deriv, rel=1e-14)
        assert res["residual"] <= 1e-13

    def test_n2_random_points(self):
        # rounding-level residuals, and eigenvalues 1e-6 too large show
        p, sd = instance(2, 1.5)
        wrong = replace(sd, lam=tuple(v * (1 + 1e-6) for v in sd.lam))
        rng = np.random.default_rng(8)
        lat = enumerate_lattice(2, 6)
        worst_wrong = 0.0
        for _ in range(10):
            x = lat[rng.integers(len(lat))]
            t = rng.uniform(-0.08, 0.08, size=2)
            assert genfun_identity_richardson(p, sd, x, t)["residual"] <= 1e-13
            worst_wrong = max(worst_wrong, genfun_identity_richardson(p, wrong, x, t)["residual"])
        assert worst_wrong > 1e-7

    def test_singular_point_rejected(self):
        p, sd = instance(2, 1.5)
        with pytest.raises(SingularGenfun):
            genfun_value(p, sd, (1, 1), (0.7, 0.4))

    def test_closed_form_matches_series(self):
        # the closed form at small t equals the truncated expansion up to O(t^(D+1))
        from mvmeixner.polynomials import genfun_series

        p, sd = instance(2, 0.7)
        x = (2, 1)
        series = genfun_series(p, sd, x, 10)
        t = (0.02, -0.015)
        approx = sum(
            series_coefficient(series, k) * t[0] ** k[0] * t[1] ** k[1]
            for k in compositions_upto(10, 2)
        )
        exact = genfun_value(p, sd, x, t)
        assert exact == pytest.approx(approx, rel=1e-12)
