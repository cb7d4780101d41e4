import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import unittest.mock
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DegreeCapExceeded, all_instances, instance, meixner_1d, series_coefficient
import mvmeixner
from mvmeixner.errors import ParameterError
from mvmeixner.model import (
    ModelParams,
    compositions_upto,
    enumerate_lattice,
    lattice_points,
    shifted_factorial,
)
from mvmeixner import polynomials
from mvmeixner.polynomials import (
    PolyTable,
    TruncatedSeries,
    _product_table,
    _row_sum_coeffs,
    _table_values,
    _u_columns,
    genfun_all,
    genfun_series,
    meixner_eval,
    pochhammer_table,
    poly_table,
    poly_values,
)
from mvmeixner.spectral import SpectralData, solve


def genfun_eval(p, sd, m, x, cap=8):
    """P_m(x) read off the generating function: the coefficient of t^m
    divided by (beta)_{|m|}/m!, from an expansion to total degree |m|, which
    is exact for that coefficient."""
    deg = sum(m)
    if deg > cap:
        raise DegreeCapExceeded(f"|m| = {deg} exceeds the configured cap {cap}")
    norm = shifted_factorial(p.beta, deg)
    for mi in m:
        norm /= math.factorial(mi)
    return series_coefficient(genfun_series(p, sd, x, deg), tuple(m)) / norm


class TestMeixnerEval:
    def test_m_zero_is_one(self):
        for p, sd in all_instances():
            zero = (0,) * p.n
            for x in enumerate_lattice(p.n, 4):
                assert meixner_eval(p, sd, zero, x) == 1.0

    def test_x_zero_is_one(self):
        for p, sd in all_instances():
            zero = (0,) * p.n
            for m in compositions_upto(4, p.n):
                assert meixner_eval(p, sd, m, zero) == 1.0

    def test_degree_one_closed_form(self):
        for p, sd in all_instances():
            for j in range(p.n):
                m = tuple(1 if k == j else 0 for k in range(p.n))
                for x in enumerate_lattice(p.n, 5):
                    expected = 1 + sum(
                        sd.u[i][j] * x[i] for i in range(p.n)
                    ) / p.beta
                    got = meixner_eval(p, sd, m, x)
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_degree_structure(self):
        # P_m - 1 - (1/beta) sum x_i m_j u_ij vanishes when |x| <= 1 or |m| <= 1
        for p, sd in all_instances():
            for m in compositions_upto(4, p.n):
                for x in enumerate_lattice(p.n, 1):
                    linear = 1 + sum(
                        x[i] * m[j] * sd.u[i][j]
                        for i in range(p.n)
                        for j in range(p.n)
                    ) / p.beta
                    got = meixner_eval(p, sd, m, x)
                    assert got == pytest.approx(linear, rel=1e-11, abs=1e-11)

    def test_symmetry_under_lambda_reordering(self):
        # permuting the lambda roots (columns of u) and m together is a no-op
        p, sd = instance(3, 1.5)
        perm = (2, 0, 1)
        sd_perm = SpectralData(
            lam=tuple(sd.lam[j] for j in perm),
            u=tuple(tuple(row[j] for j in perm) for row in sd.u),
            cbar=tuple(sd.cbar[j] for j in perm),
            residuals={},
        )
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = tuple(int(v) for v in rng.integers(0, 3, size=3))
            x = tuple(int(v) for v in rng.integers(0, 5, size=3))
            m_perm = tuple(m[j] for j in perm)
            a = meixner_eval(p, sd, m, x)
            b = meixner_eval(p, sd_perm, m_perm, x)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-10)

    def test_symmetry_under_group_relabeling(self):
        # permuting the population groups (rows of u) and x together is a no-op
        p, sd = instance(3, 0.7)
        perm = (1, 2, 0)
        p_perm = ModelParams(p.beta, tuple(p.c[i] for i in perm))
        sd_perm = SpectralData(
            lam=sd.lam,
            u=tuple(sd.u[i] for i in perm),
            cbar=sd.cbar,
            residuals={},
        )
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = tuple(int(v) for v in rng.integers(0, 3, size=3))
            x = tuple(int(v) for v in rng.integers(0, 5, size=3))
            x_perm = tuple(x[perm[i]] for i in range(3))
            a = meixner_eval(p, sd, m, x)
            b = meixner_eval(p_perm, sd_perm, m, x_perm)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# The capped recursion route 1 used before its coefficient lists were built
# in numpy, kept as the oracle: the lists must reproduce it bit for bit.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _oracle_column_factors(u_cols, m):
    """Per column j: [(column composition, its x-independent factor)]."""
    n = len(m)
    out = []
    for j in range(n):
        opts = []
        for col in compositions_upto(m[j], n):
            fac = shifted_factorial(-m[j], sum(col))
            for i in range(n):
                fac *= u_cols[j][i] ** col[i] / math.factorial(col[i])
            opts.append((col, fac))
        out.append(tuple(opts))
    return tuple(out)


@lru_cache(maxsize=None)
def _oracle_row_sum_coeffs(beta, u_cols, m, caps):
    """[(r, coeff_r)] over the row sums r <= caps, graded-lex, by recursion
    over the columns with pruning as soon as a partial row sum overshoots."""
    n = len(m)
    factors = _oracle_column_factors(u_cols, m)
    buckets = {}

    def rec(j, rows, fac):
        if j == n:
            buckets.setdefault(rows, []).append(fac)
            return
        for col, cfac in factors[j]:
            if cfac == 0.0:
                continue
            new_rows = tuple(r + c for r, c in zip(rows, col))
            if any(r > cap for r, cap in zip(new_rows, caps)):
                continue
            rec(j + 1, new_rows, fac * cfac)

    rec(0, (0,) * n, 1.0)
    return tuple(
        (r, math.fsum(buckets[r]) / shifted_factorial(beta, sum(r)))
        for r in sorted(buckets, key=lambda t: (sum(t), tuple(-v for v in t)))
    )


def _oracle_meixner_eval(p, sd, m, x):
    deg = sum(m)
    caps = tuple(min(xi, deg) for xi in x)
    terms = []
    for r, coef in _oracle_row_sum_coeffs(p.beta, _u_columns(sd), tuple(m), caps):
        for xi, ri in zip(x, r):
            coef *= shifted_factorial(-xi, ri)
        terms.append(coef)
    return math.fsum(terms)


def _oracle_poly_values(p, sd, m, X):
    kmax = sum(m)
    caps = (kmax,) * len(m)
    T = pochhammer_table(kmax, int(X.max()))
    out = np.zeros(X.shape[0])
    for r, coef in _oracle_row_sum_coeffs(p.beta, _u_columns(sd), tuple(m), caps):
        term = np.full(X.shape[0], coef)
        for i, ri in enumerate(r):
            if ri:
                term *= T[ri, X[:, i]]
        out += term
    return out


def _seeded_sets(n, count, seed):
    """(p, sd) draws at dimension n: beta log-uniform on [0.3, 5] and |c| on
    [0.2, 0.9], the rates at least 1.5-fold apart."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        beta = math.exp(rng.uniform(math.log(0.3), math.log(5.0)))
        parts = [rng.uniform(1.0, 2.0) * 3.0**i for i in range(n)]
        mass = rng.uniform(0.2, 0.9)
        p = ModelParams(beta, [mass * v / sum(parts) for v in parts])
        out.append((p, solve(p)))
    return out


class TestCoefficientLists:
    """One coefficient list per m against the capped recursion, with == ."""

    MAX_DEG = 5
    RADIUS = 8

    @pytest.mark.parametrize("n,sets,per_set", [(1, 4, 21), (2, 3, 21), (3, 2, 12), (4, 2, 6)])
    def test_bit_identical_to_capped_recursion(self, n, sets, per_set):
        rng = random.Random(100 + n)
        lattice = enumerate_lattice(n, self.RADIUS)
        X = np.array(lattice, dtype=int)
        m_all = compositions_upto(self.MAX_DEG, n)
        for p, sd in _seeded_sets(n, sets, seed=n):
            for m in rng.sample(m_all, min(per_set, len(m_all))):
                for x in rng.sample(lattice, min(40, len(lattice))):
                    assert meixner_eval(p, sd, m, x) == _oracle_meixner_eval(p, sd, m, x), (p, m, x)
                assert np.array_equal(poly_values(p, sd, m, X), _oracle_poly_values(p, sd, m, X))

    def test_rows_outside_x_skipped(self):
        # x_i < r_i for most of m's rows: only the r <= x contribute
        p, sd = instance(3, 1.5)
        m = (3, 2, 0)
        rank, _ = _row_sum_coeffs(p.beta, _u_columns(sd), m)
        r = np.array(compositions_upto(5, 3))[rank]
        for x in ((0, 0, 5), (1, 0, 0), (0, 2, 1), (4, 0, 1)):
            assert (r > np.array(x)).any(axis=1).any()
            assert meixner_eval(p, sd, m, x) == _oracle_meixner_eval(p, sd, m, x)

    def test_one_cache_entry_per_m(self):
        p = ModelParams(1.2345, (0.17, 0.29))
        sd = solve(p)
        before = _row_sum_coeffs.cache_info().misses
        for x in enumerate_lattice(2, 6):
            meixner_eval(p, sd, (2, 1), x)
        poly_values(p, sd, (2, 1), np.array(enumerate_lattice(2, 6)))
        assert _row_sum_coeffs.cache_info().misses - before == 1

    def test_lists_graded_lex_and_read_only(self):
        # every r of degree <= 3 occurs, by its rank in compositions_upto
        p, sd = instance(2, 0.7)
        rank, coeff = _row_sum_coeffs(p.beta, _u_columns(sd), (2, 1))
        assert rank.tolist() == list(range(len(compositions_upto(3, 2))))
        assert rank.shape == coeff.shape
        assert not rank.flags.writeable and not coeff.flags.writeable

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_point_reader_matches_oracle(self, data):
        # x on the boundary x_j = 0 and inside, |x| below and above |m|
        n = data.draw(st.integers(1, 4), label="n")
        p, sd = data.draw(st.sampled_from(_table_sets(n)), label="set")
        m = data.draw(st.sampled_from(compositions_upto(7 - n, n)), label="m")
        x = data.draw(st.tuples(*[st.integers(0, 9)] * n), label="x")
        got, want = meixner_eval(p, sd, m, x), _oracle_meixner_eval(p, sd, m, x)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@lru_cache(maxsize=None)
def _table_sets(n):
    return _seeded_sets(n, 2, seed=50 + n)


class TestTableEvaluator:
    """The one-pass table against the per-m loop, with == and equal signs,
    over m lists of mixed degree in any order (repeats included) and point
    sets cut into blocks whose last one is partial."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_m_loop(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        p, sd = data.draw(st.sampled_from(_table_sets(n)), label="set")
        degrees = compositions_upto(7 - n, n)
        m_list = data.draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=6), label="m_list")
        step = data.draw(st.integers(2, 9), label="points per block")
        blocks = data.draw(st.integers(1, 4), label="full blocks")
        last = data.draw(st.integers(1, step - 1), label="points in the last block")
        point = st.tuples(*[st.integers(0, 12)] * n)
        X = np.array(
            data.draw(st.lists(point, min_size=blocks * step + last, max_size=blocks * step + last)),
            dtype=int,
        )
        kmax = max(sum(m) for m in m_list)
        block_bytes = 8 * step * (2 * len(m_list) + n * (kmax + 1))
        sum_terms = unittest.mock.Mock(wraps=polynomials._sum_terms)
        with (
            unittest.mock.patch.object(polynomials, "_BLOCK_BYTES", block_bytes),
            unittest.mock.patch.object(polynomials, "_sum_terms", sum_terms),
        ):
            got = _table_values(p, sd, m_list, X)
        assert [len(c.args[3]) for c in sum_terms.call_args_list] == [step] * blocks + [last]
        want = np.array([_oracle_poly_values(p, sd, m, X) for m in m_list])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# P = C V at n=4, M=8 on |x| <= 12, hashed in a fresh interpreter
_PRODUCT_HASH = """
import hashlib
from mvmeixner.model import ModelParams, lattice_points
from mvmeixner.polynomials import _product_table
from mvmeixner.spectral import solve
p = ModelParams(1.5, (0.05, 0.1, 0.15, 0.2))
P = _product_table(p, solve(p), 8, lattice_points(4, 0, 12))
print(hashlib.sha256(P.tobytes()).hexdigest())
"""


class TestProductTable:
    """The kernel's table P = C V against the per-r table evaluator, to
    rounding, and against itself on any blocking of the points, bit for
    bit."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_within_rounding_of_table_values(self, data):
        # one parameter set per n keeps every coefficient list of |m| <= 8
        # in the cache
        n = data.draw(st.integers(1, 4), label="n")
        p, sd = _table_sets(n)[0]
        # the top degree first: the draws start from it
        max_deg = data.draw(st.sampled_from(range(8, -1, -1)), label="max_deg")
        point = st.tuples(*[st.integers(0, 30)] * n).filter(lambda x: sum(x) <= 30)
        X = np.array(data.draw(st.lists(point, min_size=1, max_size=24), label="X"), dtype=int)
        m_list = compositions_upto(max_deg, n)
        got = _product_table(p, sd, max_deg, X)
        want = _table_values(p, sd, m_list, X)
        # sum_r |C_mr V_rx|, with C from the coefficient lists and
        # V[r, x] = prod_i (-x_i)_{r_i}
        C = np.zeros((len(m_list), len(m_list)))
        for row, m in enumerate(m_list):
            rank, coeff = _row_sum_coeffs(p.beta, _u_columns(sd), m)
            C[row, rank] = coeff
        T = pochhammer_table(max_deg, int(X.max()))
        R = np.array(m_list).reshape(-1, n)
        V = np.prod([T[R[:, i:i + 1], X[:, i]] for i in range(n)], axis=0)
        scale = np.abs(C) @ np.abs(V)
        assert (np.abs(got - want) <= 8 * np.finfo(float).eps * scale).all()

    @pytest.mark.parametrize(
        "c,max_deg,S", [((0.2, 0.3), 15, 40), ((0.05, 0.1, 0.15, 0.2), 8, 12)]
    )
    def test_bit_identical_across_blockings(self, c, max_deg, S):
        # several blocks of the helper's own width, cut anywhere: single
        # points, short runs and long ones, written into slices of one table
        p = ModelParams(1.5, c)
        sd = solve(p)
        X = lattice_points(p.n, 0, S)
        whole = _product_table(p, sd, max_deg, X)
        for cuts in ([1, 2, 3, 4, 9, 300], [5, 6, len(X) - 1], list(range(1, 40)) + [777]):
            pieces = np.empty_like(whole)
            for a, b in zip([0] + cuts, cuts + [len(X)]):
                _product_table(p, sd, max_deg, X[a:b], pieces[:, a:b])
            assert np.array_equal(pieces, whole)
        reversed_ = _product_table(p, sd, max_deg, X[::-1].copy())
        assert np.array_equal(reversed_[:, ::-1], whole)

    def test_bit_identical_across_blas_threads(self):
        src = str(Path(mvmeixner.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        hashes = set()
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=src if not path else src + os.pathsep + path,
                OPENBLAS_NUM_THREADS=threads,
            )
            out = subprocess.run(
                [sys.executable, "-c", _PRODUCT_HASH],
                env=env, capture_output=True, text=True, check=True,
            )
            hashes.add(out.stdout.strip())
        p = ModelParams(1.5, (0.05, 0.1, 0.15, 0.2))
        here = _product_table(p, solve(p), 8, lattice_points(4, 0, 12))
        assert hashes == {hashlib.sha256(here.tobytes()).hexdigest()}


def _matrix_terms_mp(mp, beta, u, m):
    """Every n-by-n matrix with column sums <= m as (row sums, its term of the
    matrix sum without the (-x_i)_{r_i} factors), in mpmath arithmetic on
    the float u."""
    n = len(m)
    columns = []
    for j in range(n):
        options = []
        for col in itertools.product(range(m[j] + 1), repeat=n):
            if sum(col) > m[j]:
                continue
            fac = mp.rf(-m[j], sum(col))
            for i in range(n):
                fac *= mp.mpf(u[i][j]) ** col[i] / mp.factorial(col[i])
            options.append((col, fac))
        columns.append(options)
    terms = []
    for choice in itertools.product(*columns):
        rows = tuple(sum(col[i] for col, _ in choice) for i in range(n))
        fac = mp.fprod(f for _, f in choice)
        terms.append((rows, fac / mp.rf(mp.mpf(beta), sum(rows))))
    return terms


class TestHighPrecisionOracle:
    """meixner_eval against the matrix sum in 60-digit arithmetic at degree 8
    and |x| up to 50, where the alternating terms cancel heavily."""

    M2 = ((4, 4), (6, 2), (8, 0), (3, 5))
    X2 = ((10, 10), (20, 5), (25, 25), (0, 30))
    M3 = ((3, 3, 2), (4, 2, 2), (8, 0, 0), (2, 3, 3))
    X3 = ((10, 10, 10), (20, 5, 5), (25, 25, 0), (0, 30, 2))

    @pytest.mark.parametrize(
        "beta,c,ms,xs",
        [
            (1.5, (0.2, 0.3), M2, X2),
            (0.4, (0.05, 0.8), M2, X2),
            (3.0, (0.1, 0.15, 0.2), M3, X3),
        ],
        ids=["n2-beta1.5", "n2-beta0.4", "n3-beta3"],
    )
    def test_high_degree_large_x(self, beta, c, ms, xs):
        mp = pytest.importorskip("mpmath")
        from mvmeixner.spectral import solve

        p = ModelParams(beta, c)
        sd = solve(p)
        with mp.workdps(60):
            for m in ms:
                terms = _matrix_terms_mp(mp, beta, sd.u, m)
                for x in xs:
                    poch = [[mp.rf(-xi, k) for k in range(sum(m) + 1)] for xi in x]
                    exact = mp.fsum(
                        fac * mp.fprod(poch[i][r] for i, r in enumerate(rows))
                        for rows, fac in terms
                    )
                    got = meixner_eval(p, sd, m, x)
                    err = float(abs(mp.mpf(got) - exact))
                    assert err <= 1e-11 * (1.0 + float(abs(exact))), (m, x, got, exact)


class TestGenfunOracle:
    def test_oracle_equivalence_sweep(self):
        for p, sd in all_instances():
            for x in enumerate_lattice(p.n, 4):
                series_values = genfun_all(p, sd, x, 3)
                for m, via_series in series_values.items():
                    via_sum = meixner_eval(p, sd, m, x)
                    assert abs(via_sum - via_series) <= 1e-10 * (1 + abs(via_sum))

    def test_specific_pair(self):
        p, sd = instance(2, 1.5)
        a = meixner_eval(p, sd, (1, 1), (2, 1))
        b = genfun_eval(p, sd, (1, 1), (2, 1))
        assert abs(a - b) <= 1e-10 * (1 + abs(a))

    def test_m_zero(self):
        p, sd = instance(2, 0.7)
        assert genfun_eval(p, sd, (0, 0), (3, 1)) == pytest.approx(1.0, abs=1e-14)

    def test_cap_enforced(self):
        p, sd = instance(2, 1.5)
        with pytest.raises(DegreeCapExceeded):
            genfun_eval(p, sd, (5, 4), (1, 1), cap=8)

    def test_single_variable_generating_function(self):
        # n = 1 reduction of G reproduces the classical expansion
        p, sd = instance(1, 1.5)
        for m in range(5):
            for x in range(5):
                assert genfun_eval(p, sd, (m,), (x,)) == pytest.approx(
                    meixner_1d(p.beta, p.c[0], m, x), rel=1e-11, abs=1e-11
                )


class TestDegreeCap:
    # 171! does not convert to a double, so both routes stop at degree 170
    # with a ParameterError, not a bare OverflowError

    def test_route1(self):
        p, sd = instance(1, 1.5)
        assert np.isfinite(poly_table(p, sd, 170, 2).values).all()
        with pytest.raises(ParameterError, match="171 exceeds 170"):
            poly_table(p, sd, 171, 2)
        with pytest.raises(ParameterError, match="171 exceeds 170"):
            meixner_eval(p, sd, (171,), (1,))

    def test_route2(self):
        p, sd = instance(1, 1.5)
        assert len(genfun_all(p, sd, (1,), 170)) == 171
        with pytest.raises(ParameterError, match="171 exceeds 170"):
            genfun_all(p, sd, (1,), 171)

    def test_tables_refuse_before_building(self):
        # at n=2 the lists up to degree 170 alone would take minutes
        p, sd = instance(2, 1.5)
        X = np.zeros((1, 2), dtype=int)
        with pytest.raises(ParameterError):
            poly_table(p, sd, 171, 1)
        with pytest.raises(ParameterError):
            _product_table(p, sd, 171, X)


class TestTruncatedSeries:
    def test_mul_respects_cap(self):
        a = TruncatedSeries.geometric_power(1.3, 2, 4)
        prod = a * a
        assert prod.values.shape == (len(compositions_upto(4, 2)),)
        with pytest.raises(DegreeCapExceeded):
            series_coefficient(prod, (5, 0))

    def test_geometric_times_inverse(self):
        # (1-|t|)^(-g) * (1-|t|)^(+1) has the coefficients of (1-|t|)^(-(g-1))
        g = 2.2
        a = TruncatedSeries.geometric_power(g, 2, 5)
        lin = TruncatedSeries.affine_power((1.0, 1.0), 1, 2, 5)
        prod = a * lin
        expect = TruncatedSeries.geometric_power(g - 1, 2, 5)
        for k in compositions_upto(5, 2):
            assert series_coefficient(prod, k) == pytest.approx(
                series_coefficient(expect, k), rel=1e-12, abs=1e-12
            )

    def test_coefficient_beyond_cap(self):
        a = TruncatedSeries.geometric_power(1.0, 1, 3)
        with pytest.raises(DegreeCapExceeded):
            series_coefficient(a, (4,))

    def test_coefficient_not_an_exponent(self):
        a = TruncatedSeries.geometric_power(1.0, 2, 3)
        for k in ((1,), (1, 0, 0), (-1, 2)):
            with pytest.raises(ValueError):
                series_coefficient(a, k)

    def test_coefficient_reads_its_position(self):
        a = TruncatedSeries(3, 4, np.arange(float(len(compositions_upto(4, 3)))))
        for i, k in enumerate(compositions_upto(4, 3)):
            assert series_coefficient(a, k) == i

    def test_zero_coefficients_positive(self):
        # b_j = 0 makes some coefficients of the finite binomial vanish
        a = TruncatedSeries.affine_power((0.0, -0.5), 2, 2, 3)
        assert not np.signbit(a.values).any()
        assert series_coefficient(a, (1, 0)) == 0.0 and series_coefficient(a, (0, 1)) == 1.0


# ---------------------------------------------------------------------------
# The dict-based series route 2 used before its coefficients were stored as
# one vector, kept as the oracle: the vector form must reproduce it bit for
# bit.
# ---------------------------------------------------------------------------

class _OracleSeries:
    """Exponent tuple -> coefficient, absent meaning zero."""

    def __init__(self, n_vars, cap, coeffs):
        self.n_vars, self.cap, self.coeffs = n_vars, cap, coeffs

    @classmethod
    def geometric_power(cls, gamma, n_vars, cap):
        coeffs = {}
        for k in compositions_upto(cap, n_vars):
            c = shifted_factorial(gamma, sum(k))
            for ki in k:
                c /= math.factorial(ki)
            coeffs[k] = c
        return cls(n_vars, cap, coeffs)

    @classmethod
    def affine_power(cls, b_row, exponent, n_vars, cap):
        coeffs = {}
        for k in compositions_upto(min(exponent, cap), n_vars):
            s = sum(k)
            c = math.comb(exponent, s) * (-1.0) ** s * math.factorial(s)
            for bj, kj in zip(b_row, k):
                c *= bj**kj / math.factorial(kj)
            if c:
                coeffs[k] = c
        return cls(n_vars, cap, coeffs)

    def __mul__(self, other):
        out = {}
        for ka, va in self.coeffs.items():
            da = sum(ka)
            for kb, vb in other.coeffs.items():
                if da + sum(kb) > self.cap:
                    continue
                k = tuple(a + b for a, b in zip(ka, kb))
                out[k] = out.get(k, 0.0) + va * vb
        return _OracleSeries(self.n_vars, self.cap, out)


def _oracle_genfun_all(p, sd, x, max_deg):
    series = _OracleSeries.geometric_power(p.beta + sum(x), p.n, max_deg)
    for i in range(p.n):
        if x[i]:
            series = series * _OracleSeries.affine_power(sd.b[i], x[i], p.n, max_deg)
    out = {}
    for m in compositions_upto(max_deg, p.n):
        norm = shifted_factorial(p.beta, sum(m))
        for mi in m:
            norm /= math.factorial(mi)
        out[m] = series.coeffs.get(m, 0.0) / norm
    return out


class TestSeriesOracle:
    """genfun_all and genfun_eval against the dict series, with == and equal
    signs, at caps below and above |x| and x on the boundary x_j = 0."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_dict_series(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        p, sd = data.draw(st.sampled_from(_table_sets(n)), label="set")
        x = data.draw(st.tuples(*[st.integers(0, 4)] * n), label="x")
        cap = data.draw(st.integers(0, 7 - n), label="cap")
        got, want = genfun_all(p, sd, x, cap), _oracle_genfun_all(p, sd, x, cap)
        assert list(got) == list(want)
        g, w = np.array(list(got.values())), np.array(list(want.values()))
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
        m = data.draw(st.sampled_from(list(want)), label="m")
        assert genfun_eval(p, sd, m, x) == _oracle_genfun_all(p, sd, x, sum(m))[m]

    @pytest.mark.parametrize("n", [2, 3])
    def test_factors_at_high_degree(self, n):
        # k with two factorials that are not powers of two, (3, 3) first:
        # the divisions must run in the loop's order
        comps = compositions_upto(9, n)
        for gamma in (0.7, 2.9, 13.1):
            got = TruncatedSeries.geometric_power(gamma, n, 9).values
            want = _OracleSeries.geometric_power(gamma, n, 9).coeffs
            assert got.tolist() == [want[k] for k in comps]
        for b_row in ((0.3, -1.7, 2.2), (-0.9, 0.0, 1.3)):
            got = TruncatedSeries.affine_power(b_row[:n], 7, n, 9).values
            want = _OracleSeries.affine_power(b_row[:n], 7, n, 9).coeffs
            assert got.tolist() == [want.get(k, 0.0) for k in comps]


class TestSingleVariable:
    def test_m_zero(self):
        assert meixner_1d(1.3, 0.4, 0, 9) == 1.0

    def test_exact_rational_oracle(self):
        # dyadic parameters make the whole sum exact in Fraction arithmetic
        from fractions import Fraction

        for beta, c in ((Fraction(1), Fraction(1, 2)),
                        (Fraction(3, 2), Fraction(1, 4)),
                        (Fraction(1, 2), Fraction(3, 4))):
            z = 1 - 1 / c
            for m in range(9):
                for x in range(9):
                    exact = Fraction(0)
                    for k in range(min(m, x) + 1):
                        num = Fraction(1)
                        den = Fraction(1)
                        for i in range(k):
                            num *= (-m + i) * (-x + i)
                            den *= (beta + i) * (i + 1)
                        exact += num / den * z**k
                    got = meixner_1d(float(beta), float(c), m, x)
                    assert got == pytest.approx(float(exact), rel=1e-13, abs=1e-13)

    def test_direct_sum_oracle(self):
        # beta = 1, c = 0.5, m = x = 1: 1 + (-1)(-1)/1 * (1 - 2) = 0
        assert meixner_1d(1.0, 0.5, 1, 1) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.7, 1.0, 1.5])
    @pytest.mark.parametrize("c", [0.3, 0.5, 0.7])
    def test_matches_n1_matrix_sum(self, beta, c):
        from mvmeixner.spectral import solve

        p = ModelParams(beta, (c,))
        sd = solve(p)
        for m in range(8):
            for x in range(8):
                a = meixner_1d(beta, c, m, x)
                b = meixner_eval(p, sd, (m,), (x,))
                assert abs(a - b) <= 1e-12 * (1 + abs(a))


class TestPolyTable:
    def test_first_row_and_column(self):
        p, sd = instance(2, 1.5)
        table = poly_table(p, sd, 3, 6)
        assert np.all(table.values[0] == 1.0)
        assert np.all(table.values[:, 0] == 1.0)

    def test_spots_match_scalar_and_series(self):
        p, sd = instance(2, 0.7)
        table = poly_table(p, sd, 3, 6)
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = int(rng.integers(len(table.m_list)))
            b = int(rng.integers(len(table.x_list)))
            m, x = table.m_list[a], table.x_list[b]
            scalar = meixner_eval(p, sd, m, x)
            series = genfun_eval(p, sd, m, x)
            assert table.values[a, b] == pytest.approx(scalar, rel=1e-11, abs=1e-11)
            assert table.values[a, b] == pytest.approx(series, rel=1e-10, abs=1e-10)

    def test_poly_values_vectorization(self):
        p, sd = instance(3, 1.5)
        X = np.array(enumerate_lattice(3, 4), dtype=int)
        vals = poly_values(p, sd, (1, 0, 2), X)
        for k in (0, 5, len(X) - 1):
            assert vals[k] == pytest.approx(
                meixner_eval(p, sd, (1, 0, 2), tuple(X[k])), rel=1e-11, abs=1e-11
            )

    @pytest.mark.parametrize(
        "values",
        [
            [[-0.0, 5e-324, 1e308, -1e-300, 1.0, -3.0, 2.0**60, 0.1]],
            [[1.0], [-0.0], [5e-324], [-1e-300]],
        ],
        ids=["edge-values", "one-column"],
    )
    def test_csv_bytes_match_per_cell_format(self, tmp_path, values):
        values = np.array(values)
        k = values.shape[1]
        table = PolyTable(
            m_list=tuple((a, 0) for a in range(len(values))),
            x_list=tuple((b, 1) for b in range(k)),
            values=values,
        )
        path = tmp_path / "table.csv"
        table.write_csv(path)
        lines = ["m\\x," + ",".join(f"{b}:1" for b in range(k))]
        for a, row in enumerate(values):
            lines.append(f"{a}:0," + ",".join(f"{v:.17g}" for v in row))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_csv_round_trip_exact(self, tmp_path):
        p, sd = instance(2, 1.5)
        table = poly_table(p, sd, 2, 3)
        path = tmp_path / "table.csv"
        table.write_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "m\\x"
        assert header[1] == "0:0"
        cell = float(lines[2].split(",")[2])
        assert cell == table.values[1, 1]
