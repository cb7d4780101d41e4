import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import all_instances, instance, lattice_index, unit_shift
from mvmeixner import bdprocess
from mvmeixner import polynomials
from mvmeixner.bdprocess import (
    ComparisonReport,
    _SpectralKernel,
    _chi2_upper_tail,
    _spectral_column,
    chapman_kolmogorov_check,
    choose_spectral_cutoff,
    compare_sim_spectral,
    choose_orthogonality_S,
    moment_check,
    orthogonality_check,
    simulate,
    transition_matrix,
    transition_prob,
    wbar,
)
from mvmeixner.errors import NegativeTime, ParameterError, TailTooLarge, TruncationBoundary
from mvmeixner.model import (
    ModelParams,
    compositions,
    compositions_upto,
    enumerate_lattice,
    weight,
    weight_vector,
)
from mvmeixner.polynomials import meixner_eval, poly_table
from mvmeixner.operators import birth_rate, death_rate
from mvmeixner.spectral import SpectralData, solve


def phi_hat(p, sd, m, x):
    """Orthonormal vector entry sqrt(W(x)) P_m(x) sqrt(Wbar(m)), from the
    pointwise route 1."""
    return math.sqrt(weight(p, x)) * meixner_eval(p, sd, m, x) * math.sqrt(wbar(p, sd, m))


class TestWeights:
    def test_detailed_balance_on_edges(self):
        for p, _ in all_instances():
            for x in enumerate_lattice(p.n, 6):
                wx = weight(p, x)
                for j in range(p.n):
                    y = unit_shift(x, j, +1)
                    flow_out = wx * birth_rate(p, x)
                    flow_back = weight(p, y) * death_rate(p, y, j)
                    assert flow_out == pytest.approx(flow_back, rel=1e-12)

    def test_compatibility_identity_random_points(self):
        # both orderings of a two-step move give the same rate-ratio product
        rng = np.random.default_rng(9)
        p, _ = instance(3, 1.5)
        for _ in range(50):
            x = tuple(int(v) for v in rng.integers(0, 12, size=3))
            j, k = rng.choice(3, size=2, replace=False)
            xj = unit_shift(x, j, +1)
            xk = unit_shift(x, k, +1)
            xjk = unit_shift(xj, k, +1)
            lhs = (
                birth_rate(p, x) / death_rate(p, xj, j)
                * birth_rate(p, xj) / death_rate(p, xjk, k)
            )
            rhs = (
                birth_rate(p, x) / death_rate(p, xk, k)
                * birth_rate(p, xk) / death_rate(p, xjk, j)
            )
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_wbar_total(self):
        # sum_m Wbar(m) = (1 - |cbar|)^(-beta), finite because |cbar| < 1
        for p, sd in all_instances():
            direct = sum(wbar(p, sd, m) for m in compositions_upto(60, p.n))
            closed = (1.0 - math.fsum(sd.cbar)) ** (-p.beta)
            assert direct == pytest.approx(closed, rel=1e-8)


class TestOrthogonality:
    def test_norms_against_dual_weight(self):
        p, sd = instance(2, 1.5)
        rep = orthogonality_check(p, sd, 3)
        assert rep.max_offdiag <= 1e-6
        assert rep.max_diag <= 1e-6

    def test_degree_zero_and_one_norms(self):
        p, sd = instance(2, 0.7)
        rep = orthogonality_check(p, sd, 2)
        i0 = rep.m_list.index((0, 0))
        assert rep.gram[i0, i0] == pytest.approx(1.0, abs=1e-9)
        for j in range(2):
            m = (1, 0) if j == 0 else (0, 1)
            i = rep.m_list.index(m)
            assert rep.gram[i0, i] == pytest.approx(0.0, abs=1e-9)
            assert rep.gram[i, i] == pytest.approx(
                1.0 / (p.beta * sd.cbar[j]), rel=1e-9
            )

    def test_no_tail_guard(self):
        # the lattice walk found no S <= 400 with its tail term below 1e-8
        # here; the exact Gram has no tail to test
        p = ModelParams(2.0, (0.3, 0.6))
        rep = orthogonality_check(p, solve(p), 4)
        assert rep.max_offdiag <= 1e-6 and rep.max_diag <= 1e-6

    # the desk config's verify set (max_deg 3), its n=3 variant, and n=1 at
    # c=0.6, where the walk's tail term (5.6e-10 at S=80) was no bound
    @pytest.mark.parametrize(
        "beta,c", [(1.5, (0.2, 0.3)), (1.5, (0.1, 0.15, 0.2)), (1.5, (0.6,))]
    )
    def test_exact_gram_matches_lattice(self, beta, c):
        p = ModelParams(beta, c)
        sd = solve(p)
        tail_eps = 1e-8
        S = choose_orthogonality_S(p, sd, 3, tail_eps)
        P = poly_table(p, sd, 3, S).values
        lattice = (P * weight_vector(p, enumerate_lattice(p.n, S))) @ P.T
        gram = orthogonality_check(p, sd, 3).gram
        assert np.abs(gram - lattice).max() <= tail_eps + 1e-14 * np.abs(gram).max()

    @pytest.mark.parametrize(
        "beta,c,max_deg", [(1.5, (0.2, 0.3), 3), (0.7, (0.1, 0.15, 0.2), 2), (1.5, (0.001, 0.3), 3)]
    )
    def test_exact_gram_matches_fractions(self, beta, c, max_deg):
        # the same sum in Fractions, one (r, r') moment at a time and with no
        # common denominator: every entry, rounded once, agrees bit for bit
        p = ModelParams(beta, c)
        sd = solve(p)
        cs = [Fraction(v) for v in p.c]
        q = [ci / (1 - sum(cs)) for ci in cs]

        def moment(r, s):  # E_W[(-x)_r (-x)_s]
            total = Fraction(0)
            for k in itertools.product(*(range(min(a, b) + 1) for a, b in zip(r, s))):
                e = [a + b - ki for a, b, ki in zip(r, s, k)]
                term = math.prod((Fraction(p.beta) + l for l in range(sum(e))), start=Fraction(1))
                for a, b, ki, ei, qi in zip(r, s, k, e, q):
                    term *= math.comb(a, ki) * math.comb(b, ki) * math.factorial(ki) * qi**ei
                total += term
            return total * (-1) ** (sum(r) + sum(s))

        R = compositions_upto(max_deg, p.n)
        M = {(r, s): moment(r, s) for r in R for s in R}
        u = polynomials._u_columns(sd)
        lists = [
            {R[k]: Fraction(v) for k, v in zip(*polynomials._row_sum_coeffs(p.beta, u, m))}
            for m in R
        ]
        gram = orthogonality_check(p, sd, max_deg).gram
        for i, j in itertools.product(range(len(R)), repeat=2):
            exact = sum(a * b * M[r, s] for r, a in lists[i].items() for s, b in lists[j].items())
            assert gram[i, j] == float(exact)

    @pytest.mark.parametrize("c", [(0.2, 0.3), (0.1, 0.15, 0.2)])
    def test_choose_S_matches_full_tables(self, c):
        # S is the first of 30, 40, ... whose certified tail bound
        # A^2 tail_bound(S, 2 max_deg) reaches tail_eps, and the full table
        # on |x| <= S keeps |P_m| <= A max(|x|, 1)^max_deg, the bound it rests on
        p = ModelParams(1.5, c)
        sd = solve(p)
        tail_eps, max_deg = 1e-8, 3
        u = polynomials._u_columns(sd)
        A = max(
            np.abs(polynomials._row_sum_coeffs(p.beta, u, m)[1]).sum()
            for m in compositions_upto(max_deg, p.n)
        )
        bound = lambda S: A**2 * bdprocess.tail_bound(p, S, 2 * max_deg)
        S = choose_orthogonality_S(p, sd, max_deg, tail_eps, start=30)
        assert bound(S) <= tail_eps < bound(S - 10)
        table = poly_table(p, sd, max_deg, S)
        s = np.maximum([sum(x) for x in table.x_list], 1)
        assert (np.abs(table.values) <= A * s**max_deg).all()
        with pytest.raises(TailTooLarge, match="no S <= 400"):
            choose_orthogonality_S(p, sd, max_deg, 1e-300, start=30)

    def test_corrupted_u_detected(self):
        # a 1e-3 perturbation of one u entry must break orthogonality visibly
        p, sd = instance(2, 1.5)
        u = [list(row) for row in sd.u]
        u[0][1] += 1e-3
        bad = SpectralData(
            lam=sd.lam, u=tuple(tuple(r) for r in u), cbar=sd.cbar, residuals={}
        )
        rep = orthogonality_check(p, bad, 2)
        assert rep.max_offdiag > 1e-6


class TestMoments:
    def test_n1_mean(self):
        res = moment_check(ModelParams(1.0, (0.5,)))
        assert res["mean"] <= 1e-10

    def test_n2_closed_forms(self):
        p, _ = instance(2, 1.5)
        lat_S = moment_check(p)
        assert lat_S["mean"] <= 1e-8
        assert lat_S["second"] <= 1e-8

    def test_search_that_misses_its_bound_raises(self):
        # |c| = 0.97: no S <= 400 brings the omitted second moment to 1e-13
        p = ModelParams(1.5, (0.97,))
        with pytest.raises(TailTooLarge):
            moment_check(p)
        assert moment_check(p, S=100)["S"] == 100.0

    @pytest.mark.parametrize("beta,c,S", [(1.5, (0.2, 0.3), 25), (0.7, (0.1, 0.15, 0.2), 12)])
    def test_shell_sums_match_whole_lattice(self, beta, c, S):
        # the residuals against a whole-lattice sum; the shell sums add the
        # same terms in another order, so they agree to rounding
        p = ModelParams(beta, c)
        lat = enumerate_lattice(p.n, S)
        w = weight_vector(p, lat)
        X = np.array(lat, dtype=float)
        cv = np.asarray(c)
        mean_exact = cv * beta / (1.0 - p.c_mass)
        second_exact = beta * (beta + 1.0) * np.outer(cv, cv) / (1.0 - p.c_mass) ** 2 + np.diag(
            beta * cv / (1.0 - p.c_mass)
        )
        res = moment_check(p, S=S)
        mean = np.abs(w @ X - mean_exact).max()
        second = np.abs((X.T * w) @ X - second_exact).max()
        assert res["mean"] > 1e-7 and res["second"] > 1e-7  # S leaves a tail
        assert abs(res["mean"] - mean) <= 1e-14 * (1.0 + mean_exact.max())
        assert abs(res["second"] - second) <= 1e-14 * (1.0 + second_exact.max())

    def test_mean_value_directly(self):
        p, _ = instance(2, 1.5)
        S = 80
        lat = enumerate_lattice(2, S)
        w = weight_vector(p, lat)
        mean1 = sum(wi * x[0] for wi, x in zip(w, lat))
        assert mean1 == pytest.approx(0.2 * 1.5 / 0.5, rel=1e-10)


class TestPhiHat:
    def test_normalization_of_phi0(self):
        p, sd = instance(2, 1.5)
        lat = enumerate_lattice(2, 60)
        phi0 = np.array([phi_hat(p, sd, (0, 0), x) for x in lat])
        assert phi0 @ phi0 == pytest.approx(1.0, abs=1e-9)

    def test_cross_orthogonality(self):
        # phi_m . phi_m' on |x| <= 70 is the Gram entry scaled by
        # sqrt(Wbar(m) Wbar(m'))
        p, sd = instance(2, 0.7)
        rep = orthogonality_check(p, sd, 1)
        i, k = rep.m_list.index((1, 0)), rep.m_list.index((0, 1))
        swb = np.sqrt([wbar(p, sd, m) for m in rep.m_list])
        phi_gram = swb[:, None] * rep.gram * swb[None, :]
        assert abs(phi_gram[i, k]) <= 1e-9
        assert phi_gram[i, i] == pytest.approx(1.0, abs=1e-8)
        lat = enumerate_lattice(2, 70)
        phi = [np.array([phi_hat(p, sd, m, x) for x in lat]) for m in ((1, 0), (0, 1))]
        assert phi[0] @ phi[1] == pytest.approx(phi_gram[i, k], abs=1e-15)

    def test_completeness_monotone_trend(self):
        # sum_{|m| <= M} phi_m(x) phi_m(y) - delta_xy is
        # sqrt(W(y)/W(x)) T(x, y; 0) for x != y
        p, sd = instance(2, 1.5)
        x, y = (1, 0), (0, 1)
        scale = math.sqrt(weight(p, y) / weight(p, x))
        res = [
            scale * abs(transition_prob(p, sd, x, y, 0.0, M).spectral_value)
            for M in (2, 6, 10, 14)
        ]
        assert res[-1] < res[0]
        assert res[-1] <= 2e-2
        phi_sum = math.fsum(
            phi_hat(p, sd, m, x) * phi_hat(p, sd, m, y) for m in compositions_upto(6, 2)
        )
        assert abs(phi_sum) == pytest.approx(res[1], rel=1e-12)


class TestTransition:
    def test_negative_time_rejected(self):
        p, sd = instance(1, 1.0)
        with pytest.raises(NegativeTime):
            transition_prob(p, sd, (0,), (0,), -0.1, 5)

    # a NaN t passed `t < 0` and gave NaN, and simulate stepped every
    # trajectory to the event cap
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        p, sd = instance(2, 1.5)
        with pytest.raises(NegativeTime):
            transition_prob(p, sd, (1, 0), (0, 1), t, 10)
        with pytest.raises(NegativeTime):
            choose_spectral_cutoff(p, sd, (1, 0), (0, 1), t)
        with pytest.raises(NegativeTime):
            transition_matrix(p, sd, t, 5, 3)
        with pytest.raises(NegativeTime):
            simulate(p, (0, 0), t, 1, 10)

    def test_degree_cap(self):
        # 171! does not convert to a double
        p, sd = instance(1, 1.5)
        with pytest.raises(ParameterError, match="171 exceeds 170"):
            transition_prob(p, sd, (1,), (0,), 1.0, 171)
        rep = transition_prob(p, sd, (1,), (0,), 1.0, 170)
        assert math.isfinite(rep.spectral_value)

    def test_long_time_reaches_stationarity(self):
        p, sd = instance(2, 1.5)
        t = 50.0 / sd.lam[0]
        for x in ((0, 0), (1, 1), (2, 0)):
            rep = transition_prob(p, sd, x, (1, 0), t, 8)
            assert rep.spectral_value == pytest.approx(weight(p, x), abs=1e-6)

    def test_forms_agree(self):
        p, sd = instance(2, 0.7)
        rng = np.random.default_rng(10)
        lat = enumerate_lattice(2, 5)
        for _ in range(15):
            x = lat[rng.integers(len(lat))]
            y = lat[rng.integers(len(lat))]
            t = float(rng.uniform(0.05, 2.0))
            rep = transition_prob(p, sd, x, y, t, 10)
            assert rep.forms_gap <= 1e-10 * (1 + abs(rep.spectral_value))
            assert rep.nonnegative

    def test_conservation_over_states(self):
        # the mass escaped from |x| <= S is 1 minus the column sum over x
        for n, y, M, S, tol in ((2, (1, 0), 12, 25, 1e-6), (1, (2,), 25, 40, 1e-9)):
            p, sd = instance(n, 1.5)
            col = transition_matrix(p, sd, 0.3, M, S)[:, lattice_index(n, S)[y]]
            assert abs(1.0 - col.sum()) <= tol

    def test_short_time_delta_trend(self):
        p, sd = instance(1, 1.0)
        # residual against the delta initial condition shrinks as M grows
        res = []
        for M in (5, 15, 30):
            rep = transition_prob(p, sd, (1,), (1,), 0.02, M)
            res.append(abs(rep.spectral_value - 1.0))
        assert res[2] < res[0]

    def test_adaptive_cutoff(self):
        p, sd = instance(2, 1.5)
        fast = choose_spectral_cutoff(p, sd, (1, 0), (0, 1), 2.0)
        slow = choose_spectral_cutoff(p, sd, (1, 0), (0, 1), 0.1)
        assert slow > fast
        rep = transition_prob(p, sd, (1, 0), (0, 1), 0.5)  # M=None: adaptive
        explicit = transition_prob(p, sd, (1, 0), (0, 1), 0.5, 30)
        assert rep.spectral_value == pytest.approx(
            explicit.spectral_value, abs=1e-9
        )
        with pytest.raises(NegativeTime):
            choose_spectral_cutoff(p, sd, (0, 0), (0, 0), 0.0)
        assert (fast, slow) == (7, 123)
        assert choose_spectral_cutoff(p, sd, (1, 0), (0, 1), 0.5) == 25
        # at t=0.05 the next-shell bound is still 1.07e-7 at the cap M=170
        with pytest.raises(TailTooLarge, match="M=170"):
            choose_spectral_cutoff(p, sd, (1, 0), (0, 1), 0.05)
        with pytest.raises(TailTooLarge):
            transition_prob(p, sd, (1, 0), (0, 1), 0.05)

    @pytest.mark.parametrize("n", [1, 2])
    def test_reduced_form_is_a_kernel_entry(self, n):
        # the entry of the dense kernel, and the sum over m at the two points
        # by pointwise route 1
        p, sd = instance(n, 1.5)
        S, M, t = 4, 10, 0.4
        lat = enumerate_lattice(n, S)
        T = transition_matrix(p, sd, t, M, S)
        for x, y in ((lat[1], lat[0]), (lat[-1], lat[2]), (lat[3], lat[3])):
            rep = transition_prob(p, sd, x, y, t, M)
            assert abs(rep.reduced_value - T[lat.index(x), lat.index(y)]) <= 1e-14
            pointwise = weight(p, x) * math.fsum(
                wbar(p, sd, m) * math.exp(-sd.energy(m) * t)
                * meixner_eval(p, sd, m, x) * meixner_eval(p, sd, m, y)
                for m in compositions_upto(M, n)
            )
            assert abs(rep.reduced_value - pointwise) <= 1e-14

    def test_point_outside_the_orthant(self):
        p, sd = instance(2, 1.5)
        for x, y in (((-1, 0), (0, 1)), ((1, 0), (2, -3)), ((1, 0, 0), (0, 1)), ((1,), (0, 1))):
            for M in (5, None):
                with pytest.raises(TruncationBoundary, match="N_0"):
                    transition_prob(p, sd, x, y, 0.5, M)


class TestChapmanKolmogorov:
    def test_n1_desk_instance(self):
        p = ModelParams(1.0, (0.5,))
        sd = solve(p)
        out = chapman_kolmogorov_check(p, sd, (2,), (1,), 0.3, 0.3, 40, 25)
        assert out["residual"] <= 1e-6

    def test_n2_desk_instance(self):
        p, sd = instance(2, 1.5)
        out = chapman_kolmogorov_check(p, sd, (1, 0), (0, 1), 0.3, 0.3, 25, 12)
        assert out["residual"] <= 1e-5

    def test_t_prime_zero_collapses(self):
        p, sd = instance(1, 1.0)
        out = chapman_kolmogorov_check(p, sd, (2,), (1,), 0.3, 0.0, 40, 25)
        assert out["residual"] <= 1e-8

    def test_point_outside_lattice(self):
        p, sd = instance(2, 1.5)
        # past the cap, then points of the wrong length or sign
        for x, y in (((6, 0), (0, 1)), ((0, 1), (3, 3)), ((1, 0, 0), (0, 1)), ((-1, 2), (0, 1))):
            with pytest.raises(TruncationBoundary, match="S=5"):
                chapman_kolmogorov_check(p, sd, x, y, 0.3, 0.3, 5, 4)


class TestKernelViews:
    """Rows, columns and entries read from one kernel match the dense matrix."""

    # the verify report's Chapman-Kolmogorov sizes
    @pytest.mark.parametrize(
        "n,x,y,S,M", [(1, (2,), (1,), 40, 25), (2, (1, 0), (0, 1), 25, 12)]
    )
    def test_views_match_dense_matrix(self, n, x, y, S, M):
        p, sd = instance(n, 1.5)
        t, tp = 0.3, 0.2
        idx = lattice_index(p.n, S)
        ix, iy = idx[x], idx[y]
        Tt = transition_matrix(p, sd, t, M, S)
        Tp = transition_matrix(p, sd, tp, M, S)
        direct = transition_matrix(p, sd, t + tp, M, S)[ix, iy]

        ck = chapman_kolmogorov_check(p, sd, x, y, t, tp, S, M)
        assert abs(ck["direct"] - direct) <= 1e-14
        assert abs(ck["composed"] - Tt[ix] @ Tp[:, iy]) <= 1e-14
        shell = weight(p, x) * math.fsum(
            abs(wbar(p, sd, m) * math.exp(-sd.energy(m) * (t + tp))
                * meixner_eval(p, sd, m, x) * meixner_eval(p, sd, m, y))
            for m in compositions(M, p.n)
        )
        assert ck["top_shell_contribution"] == pytest.approx(shell, rel=1e-10, abs=0.0)

        assert abs(ck["start_column_defect"] - abs(1.0 - Tp[:, iy].sum())) <= 1e-14

        col, X = _spectral_column(p, sd, y, tp, M, S)
        S_col = int(X[-1].sum())
        dense = transition_matrix(p, sd, tp, M, S_col)[:, lattice_index(p.n, S_col)[y]]
        assert np.abs(col - dense).max() <= 1e-14

    def test_spectral_column_grows_by_shells(self, monkeypatch):
        # from the origin at t=1 most of the mass lies beyond |x| = 4, so the
        # column grows S twice
        p, sd = instance(2, 1.5)
        x0, t, M, S = (0, 0), 1.0, 8, 4
        evaluated = []
        real = polynomials._product_table

        def counting(p_, sd_, max_deg, X, *args):
            evaluated.extend(map(tuple, X.tolist()))
            return real(p_, sd_, max_deg, X, *args)

        monkeypatch.setattr(polynomials, "_product_table", counting)
        monkeypatch.setattr(bdprocess, "_product_table", counting)
        col, X = _spectral_column(p, sd, x0, t, M, S)
        monkeypatch.undo()
        lat = enumerate_lattice(p.n, int(X[-1].sum()))
        assert len(lat) > len(enumerate_lattice(p.n, S + 10))
        assert np.array_equal(X, np.array(lat))
        kernel = _SpectralKernel(p, sd, M, X)
        assert np.array_equal(col, kernel.column(lat.index(x0), t))
        assert sorted(evaluated) == sorted(lat)

    def test_spectral_column_cap_raises(self):
        # at |c| = 0.9, beta = 5 the column still misses 4.0e-5 of its mass
        # at the cap S = 120
        p = ModelParams(5.0, (0.9,))
        with pytest.raises(TailTooLarge, match=r"defect 3\.968e-05 > 1e-08 at S=120"):
            _spectral_column(p, solve(p), (0,), 5.0, 15, 20)

    def test_chapman_kolmogorov_builds_one_table(self, monkeypatch):
        calls = []
        real = bdprocess._product_table

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bdprocess, "_product_table", counting)
        p, sd = instance(2, 1.5)
        chapman_kolmogorov_check(p, sd, (1, 0), (0, 1), 0.3, 0.3, 25, 12)
        assert len(calls) == 1


class TestSimulate:
    def test_time_zero_stays_put(self):
        p, _ = instance(2, 1.5)
        sim = simulate(p, (1, 1), 0.0, 1, 500)
        assert sim.counts == {(1, 1): 500}
        assert sim.cap_hits == 0

    def test_deterministic_given_seed(self):
        p, _ = instance(1, 1.0)
        a = simulate(p, (0,), 0.7, 123, 3000)
        b = simulate(p, (0,), 0.7, 123, 3000)
        assert a.counts == b.counts
        c = simulate(p, (0,), 0.7, 124, 3000)
        assert a.counts != c.counts

    def test_against_spectral_small(self):
        p = ModelParams(1.0, (0.5,))
        sd = solve(p)
        sim = simulate(p, (0,), 1.0, 42, 30_000)
        rep = compare_sim_spectral(p, sd, sim, 25)
        assert isinstance(rep, ComparisonReport)
        assert rep.max_abs_z <= 4.0
        assert rep.p_value > 1e-3
        freqs = math.fsum(r.frequency for r in rep.rows)
        assert freqs == pytest.approx(1.0, abs=1e-9)

    def test_p_value_is_chi2_upper_tail(self):
        from scipy.stats import chi2

        p, sd = instance(2, 1.5)
        sim = simulate(p, (1, 0), 0.5, 3, 2000)
        rep = compare_sim_spectral(p, sd, sim, 10)
        assert rep.dof > 1
        exact = _chi2_sf_mpmath(rep.dof, rep.chi2)
        assert abs(rep.p_value - exact) <= 1e-13 * exact
        assert rep.p_value == pytest.approx(float(chi2.sf(rep.chi2, rep.dof)), rel=1e-13)

    def test_clamped_mass_reported(self):
        # at short t the truncation at M=8 leaves negative spectral entries
        # (the smallest about -2.9e-4); a row shows 0 for them, and the
        # report carries their total magnitude
        p = ModelParams(1.5, (0.1, 0.15, 0.2))
        sd = solve(p)
        sim = simulate(p, (0, 1, 0), 0.05, 42, 2000)
        rep = compare_sim_spectral(p, sd, sim, 8)
        S = max(sum(s) for s in sim.counts) + 5
        probs, _ = _spectral_column(p, sd, (0, 1, 0), 0.05, 8, S)
        assert probs.min() == pytest.approx(-2.86e-4, rel=1e-2)
        negative = probs[probs < 0.0].tolist()
        assert rep.clamped_mass == pytest.approx(-math.fsum(negative), rel=1e-12)
        assert rep.clamped_mass == pytest.approx(2.64e-3, rel=1e-2)
        assert all(row.spectral >= 0.0 for row in rep.rows)

    def test_no_clamped_mass_at_desk_time(self):
        p, sd = instance(2, 1.5)
        rep = compare_sim_spectral(p, sd, simulate(p, (0, 0), 1.0, 42, 2000), 15)
        assert rep.clamped_mass == 0.0

    def test_long_time_matches_stationary(self):
        p = ModelParams(1.0, (0.4,))
        sd = solve(p)
        sim = simulate(p, (0,), 30.0, 7, 20_000)
        rep = compare_sim_spectral(p, sd, sim, 20)
        for row in rep.rows:
            if row.z is not None:
                assert abs(row.spectral - weight(p, row.state)) <= 1e-6
        assert rep.p_value > 1e-3


def _run_trajectory(
    p: ModelParams, x0, t_end: float, rng, max_events: int
) -> tuple[tuple[int, ...], bool]:
    """One trajectory, one event per iteration: the reference for simulate."""
    n = p.n
    c = p.c
    beta = p.beta
    x = list(x0)
    sx = sum(x)
    t = 0.0
    events = 0
    buf = rng.random(512)
    pos = 0
    while True:
        if events >= max_events:
            return tuple(x), True
        per_birth = beta + sx
        total = n * per_birth
        for j in range(n):
            total += x[j] / c[j]
        if pos + 2 > buf.size:
            buf = rng.random(512)
            pos = 0
        u_wait = buf[pos]
        u_pick = buf[pos + 1]
        pos += 2
        t += -math.log1p(-u_wait) / total
        if t > t_end:
            return tuple(x), False
        events += 1
        pick = u_pick * total
        if pick < n * per_birth:
            j = min(int(pick / per_birth), n - 1)
            x[j] += 1
            sx += 1
        else:
            pick -= n * per_birth
            target = None
            for j in range(n):
                if x[j]:
                    target = j
                    pick -= x[j] / c[j]
                    if pick < 0.0:
                        break
            x[target] -= 1
            sx -= 1


def oracle_simulate(p, x0, t, seed, n_traj, max_events=1_000_000):
    counts: Counter = Counter()
    cap_hits = 0
    for i in range(n_traj):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        state, capped = _run_trajectory(p, x0, t, rng, max_events)
        counts[state] += 1
        cap_hits += capped
    return counts, cap_hits


class TestSimulatorOracle:
    """simulate advances all trajectories in lock-step; each must end where
    the one-trajectory loop on the same Philox stream ends, bit for bit."""

    @pytest.mark.parametrize("seed", [3, 11, 42])
    @pytest.mark.parametrize(
        "beta,c,x0,t",
        [
            (1.0, (0.5,), (0,), 0.05),
            (1.0, (0.5,), (3,), 2.5),
            (1.5, (0.2, 0.3), (0, 0), 1.0),
            (1.5, (0.45, 0.49), (2, 1), 0.4),
            (1.5, (0.2, 0.3), (1, 1), 0.0),
            (0.7, (0.1, 0.15, 0.2), (0, 0, 0), 0.5),
            (3.0, (0.1, 0.15, 0.2), (1, 0, 2), 2.5),
            (1.5, (0.05, 0.1, 0.15, 0.2), (0, 1, 0, 2), 1.5),
        ],
    )
    def test_matches_oracle(self, beta, c, x0, t, seed):
        p = ModelParams(beta, c)
        sim = simulate(p, x0, t, seed, 400)
        assert (sim.counts, sim.cap_hits) == oracle_simulate(p, x0, t, seed, 400)

    def test_states_past_the_int64_rank(self):
        # at n=20 and |x| = 100 the lattice rank exceeds int64, so the
        # states are tallied as tuples
        p = ModelParams(1.5, (0.04,) * 20)
        x0 = (5,) * 20
        assert math.comb(sum(x0) + 20, 20) > np.iinfo(np.int64).max
        sim = simulate(p, x0, 0.002, 9, 60)
        assert len(sim.counts) > 1
        assert (sim.counts, sim.cap_hits) == oracle_simulate(p, x0, 0.002, 9, 60)

    @pytest.mark.parametrize("n_traj", [0, 1, bdprocess._SIM_BATCH + 1])
    def test_batch_edges(self, n_traj):
        p = ModelParams(1.5, (0.2, 0.3))
        sim = simulate(p, (0, 0), 0.2, 5, n_traj)
        assert sim.n_traj == n_traj
        assert (sim.counts, sim.cap_hits) == oracle_simulate(p, (0, 0), 0.2, 5, n_traj)

    def test_jumps_landing_on_t_end(self):
        # t_end is set to a trajectory's first jump time exactly, so that jump
        # happens and a wait one ulp longer would drop it.  numpy's vectorised
        # log1p rounds some draws differently on some builds; the first such
        # draw is among those tried.  At c=0.18, x=3 the rate total rounds
        # one ulp lower when x/c is formed as x*(1/c), so a total formed that
        # way waits longer too
        u = [np.random.Generator(np.random.Philox(key=[42, i])).random() for i in range(2000)]
        flips = [i for i, v in enumerate(u) if np.log1p(-v) < math.log1p(-v)]
        for p, x0 in ((ModelParams(1.5, (0.2, 0.3)), (1, 2)), (ModelParams(1.0, (0.18,)), (3,))):
            total = p.n * (p.beta + sum(x0))
            for j in range(p.n):
                total += x0[j] / p.c[j]
            for i in list(range(8)) + flips[:1]:
                t_end = 0.0 + -math.log1p(-u[i]) / total
                sim = simulate(p, x0, t_end, 42, i + 1)
                assert (sim.counts, sim.cap_hits) == oracle_simulate(p, x0, t_end, 42, i + 1)

    def test_event_cap_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(bdprocess, "MAX_EVENTS_PER_TRAJECTORY", 3)
        p = ModelParams(1.5, (0.2, 0.3))
        sim = simulate(p, (0, 0), 1.0, 11, 300)
        assert sim.cap_hits > 0
        assert (sim.counts, sim.cap_hits) == oracle_simulate(
            p, (0, 0), 1.0, 11, 300, max_events=3
        )

    def test_cap_hits_at_n4(self, monkeypatch):
        # some trajectories finish before the cap, so capped and finished
        # states are tallied together
        monkeypatch.setattr(bdprocess, "MAX_EVENTS_PER_TRAJECTORY", 6)
        p = ModelParams(1.5, (0.05, 0.1, 0.15, 0.2))
        sim = simulate(p, (1, 0, 2, 0), 0.2, 3, 400)
        assert 100 < sim.cap_hits < 300
        assert (sim.counts, sim.cap_hits) == oracle_simulate(
            p, (1, 0, 2, 0), 0.2, 3, 400, max_events=6
        )

    @pytest.mark.parametrize("seed", [0, 42, 2**63 + 5, 2**64 - 1])
    def test_philox_words(self, seed):
        ids = np.array([0, 1, 7, 2**32 + 5, 2**63 + 3, 2**64 - 1], dtype=np.uint64)
        words = np.concatenate(
            [bdprocess._philox_block(counter, seed, ids) for counter in (1, 2)]
        )
        later = {counter: bdprocess._philox_block(counter, seed, ids) for counter in (9, 500, 2**40)}
        for col, i in enumerate(ids):
            # an explicit uint64 key: numpy converts a list mixing values
            # above 2**63 with small ones through float64
            key = np.array([seed, i], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).random(8)
            assert np.array_equal(bdprocess._uniforms(words[:, col]), expected)
            # numpy raises its counter before each block
            for counter, block in later.items():
                start = np.array([counter - 1, 0, 0, 0], dtype=np.uint64)
                raw = np.random.Philox(key=key, counter=start).random_raw(4)
                assert np.array_equal(block[:, col], raw)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        p = ModelParams(1.0, (0.5,))
        with pytest.raises(ParameterError, match="seed"):
            simulate(p, (0,), 0.5, seed, 10)


def _chi2_sf_mpmath(dof: int, stat: float):
    """P(chi2_dof > stat) at 50 digits: the regularized upper incomplete
    gamma Q(dof/2, stat/2)."""
    import mpmath

    with mpmath.workdps(50):
        return mpmath.gammainc(
            mpmath.mpf(dof) / 2, mpmath.mpf(stat) / 2, mpmath.inf, regularized=True
        )


class TestChi2UpperTail:
    def test_against_mpmath(self):
        # every dof up to 40 and 20 drawn up to 6000, both parities; stat
        # near 0, at and around the mean, and drawn up to 3 dof + 40
        rng = np.random.default_rng(29)
        dofs = [*range(1, 41), *rng.integers(41, 6001, size=20).tolist()]
        worst, cases = 0.0, 0
        for dof in dofs:
            stats = [1e-3, 0.5, dof - 0.5, dof, dof + 1.0, *rng.uniform(0.0, 3 * dof + 40, 5)]
            for stat in map(float, stats):
                exact = _chi2_sf_mpmath(dof, stat)
                if exact < 1e-300:
                    continue
                cases += 1
                worst = max(worst, float(abs(_chi2_upper_tail(dof, stat) - exact) / exact))
        assert cases > 500
        assert worst <= 1e-11

    @pytest.mark.parametrize("dof", [1, 2, 7, 64])
    def test_edges(self, dof):
        assert math.isnan(_chi2_upper_tail(dof, math.nan))
        assert _chi2_upper_tail(dof, 0.0) == 1.0
        assert _chi2_upper_tail(dof, -3.0) == 1.0
        assert _chi2_upper_tail(dof, math.inf) == 0.0
        assert _chi2_upper_tail(dof, 1e6) == 0.0
