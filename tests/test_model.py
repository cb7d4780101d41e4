import math
from functools import lru_cache
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import lattice_index, unit_shift
from mvmeixner.errors import CMassNotBelowOne, NonPositiveBeta, NonPositiveC
from mvmeixner.model import (
    ModelParams,
    compositions,
    enumerate_lattice,
    lattice_points,
    lattice_rank,
    lattice_unrank,
    log_weight,
    shifted_factorial,
    tail_bound,
    validate_params,
    weight,
    weight_vector,
)


class TestParams:
    def test_valid_distinct(self):
        p = ModelParams(1.5, (0.2, 0.3))
        assert validate_params(p) is p
        assert not p.degenerate
        assert p.c_mass == pytest.approx(0.5)

    def test_valid_coincident_sets_flag(self):
        assert ModelParams(1.0, (0.4, 0.4)).degenerate

    def test_near_coincident_within_tolerance(self):
        assert ModelParams(1.0, (0.4, 0.4 + 1e-14)).degenerate
        assert not ModelParams(1.0, (0.4, 0.4 + 1e-9)).degenerate

    def test_mass_at_least_one_rejected(self):
        with pytest.raises(CMassNotBelowOne):
            ModelParams(1.0, (0.6, 0.6))
        with pytest.raises(CMassNotBelowOne):
            ModelParams(1.0, (1.0,))

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveBeta):
            ModelParams(0.0, (0.5,))
        with pytest.raises(NonPositiveC):
            ModelParams(1.0, (0.2, 0.0))
        with pytest.raises(NonPositiveC):
            ModelParams(1.0, ())


class TestShiftedFactorial:
    def test_empty_product(self):
        assert shifted_factorial(3.0, 0) == 1.0

    def test_small_values(self):
        assert shifted_factorial(1.5, 2) == pytest.approx(3.75)

    def test_negative_integer_truncates(self):
        # the vanishing factor at a = -2, k = 3 is what terminates all series
        assert shifted_factorial(-2, 3) == 0.0
        assert shifted_factorial(-2, 2) == 2.0

    def test_recurrence(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.uniform(-5, 5)
            k = int(rng.integers(0, 31))
            lhs = shifted_factorial(a, k + 1)
            rhs = shifted_factorial(a, k) * (a + k)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


class TestLattice:
    def test_one_dim(self):
        assert enumerate_lattice(1, 3) == [(0,), (1,), (2,), (3,)]

    def test_two_dim_order(self):
        assert enumerate_lattice(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_count(self):
        assert len(enumerate_lattice(3, 2)) == 10
        assert len(enumerate_lattice(2, 30)) == math.comb(32, 2)

    def test_duplicate_free_and_shift_closed(self):
        lat = enumerate_lattice(3, 5)
        seen = set(lat)
        assert len(seen) == len(lat)
        for x in lat:
            for j in range(3):
                if x[j]:
                    assert unit_shift(x, j, -1) in seen


_positions = lru_cache(maxsize=None)(lattice_index)


class TestLatticeRank:
    """lattice_rank against each point's position in enumerate_lattice."""

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 6),
        shell=st.integers(0, 8),
        pick=st.integers(0, 10**6),
        faces=st.lists(st.booleans(), min_size=6, max_size=6),
        extra=st.integers(0, 3),
    )
    def test_matches_enumeration_at_every_cap(self, n, shell, pick, faces, extra):
        points = compositions(shell, n)
        x = tuple(0 if face else v for v, face in zip(points[pick % len(points)], faces))
        rank = int(lattice_rank(np.array([x]))[0])
        # the rank does not depend on the cap, as long as it holds x
        for S in (sum(x), sum(x) + extra, shell + extra):
            assert rank == _positions(n, S)[x]

    @pytest.mark.parametrize("n,S", [(1, 12), (2, 12), (3, 12), (4, 8), (5, 6), (6, 5)])
    def test_whole_lattice_in_order(self, n, S):
        X = np.array(enumerate_lattice(n, S)).reshape(-1, n)
        assert np.array_equal(lattice_rank(X), np.arange(len(X)))
        assert np.array_equal(lattice_rank(X[::-1]), np.arange(len(X))[::-1])

    @pytest.mark.parametrize("n,S", [(64, 1), (10, 10)])
    def test_large_lattice(self, n, S):
        # (S+1)^n is 2^64 at (64, 1), past int64, and (10, 10) holds 184,756
        # points; every entry of the binomial table is at most the lattice size
        lattice = enumerate_lattice(n, S)
        X = np.fromiter(chain.from_iterable(lattice), dtype=np.int64).reshape(-1, n)
        assert len(X) == math.comb(S + n, n)
        assert np.array_equal(lattice_rank(X), np.arange(len(X)))
        assert np.array_equal(lattice_unrank(np.arange(len(X)), n), X)

    def test_empty(self):
        assert len(lattice_rank(np.zeros((0, 3), dtype=int))) == 0
        assert lattice_unrank(np.zeros(0, dtype=int), 3).shape == (0, 3)

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 5),
        shell=st.integers(0, 12),
        rows=st.lists(
            st.lists(st.integers(0, 30), min_size=5, max_size=5), min_size=1, max_size=20
        ),
    )
    def test_unrank_inverts_rank(self, n, shell, rows):
        X = np.array(rows, dtype=np.int64)[:, :n]
        assert np.array_equal(lattice_unrank(lattice_rank(X), n), X)
        # a shell in closed form is the tuple enumeration of that shell
        expected = np.array(compositions(shell, n), dtype=np.int64).reshape(-1, n)
        assert np.array_equal(lattice_points(n, shell, shell), expected)

    def test_negative_entry_rejected(self):
        # a negative entry would index the rank table from its end
        for X in ([[3, -1]], [[-1, 3]], [[0, 0], [2, -1]]):
            with pytest.raises(ValueError, match="negative"):
                lattice_rank(np.array(X))


class TestWeight:
    def test_tail_examples(self):
        p = ModelParams(1.0, (0.2, 0.3))
        # beta = 1 makes the total-population marginal geometric
        assert tail_bound(p, 0) == pytest.approx(0.5, rel=1e-14)
        assert tail_bound(p, 12) == pytest.approx(0.5**13, rel=1e-14)
        assert tail_bound(p, 12) > tail_bound(p, 13)
        assert tail_bound(p, 40) < 1e-11

    def test_tail_direct_series_oracle(self):
        p = ModelParams(1.7, (0.15, 0.25))
        q = p.c_mass
        for S in (0, 3, 10):
            direct = sum(
                math.exp(
                    math.lgamma(p.beta + s) - math.lgamma(p.beta)
                    + s * math.log(q) - math.lgamma(s + 1)
                    + p.beta * math.log1p(-q)
                )
                for s in range(S + 1, 400)
            )
            assert tail_bound(p, S) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("c", [(0.15, 0.25), (0.1, 0.15, 0.2)])
    @pytest.mark.parametrize("S", [0, 4, 15])
    def test_tail_second_moment_over_shells(self, c, S):
        # sum_{|x|>S} |x|^2 W(x), shell by shell over the lattice points
        p = ModelParams(1.7, c)
        direct = math.fsum(
            s**2 * math.fsum(weight_vector(p, compositions(s, p.n)))
            for s in range(S + 1, 100)
        )
        assert tail_bound(p, S, 2) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "beta, c", [(1.7, (0.15, 0.25)), (0.3, (0.9,)), (5.0, (0.01,))]
    )
    def test_tail_power_zero_is_default(self, beta, c):
        p = ModelParams(beta, c)
        for S in (0, 1, 7, 30, 200):
            assert tail_bound(p, S) == tail_bound(p, S, 0)

    @pytest.mark.parametrize("beta", [0.7, 1.5])
    @pytest.mark.parametrize("S", [5, 15, 30])
    def test_normalization(self, beta, S):
        p = ModelParams(beta, (0.2, 0.3))
        lat = enumerate_lattice(2, S)
        total = weight_vector(p, lat).sum() + tail_bound(p, S)
        eps = np.finfo(float).eps * len(lat)
        assert abs(total - 1.0) <= eps

    @pytest.mark.parametrize("c", [(0.5,), (0.2, 0.3), (0.1, 0.15, 0.2)])
    def test_weight_vector_is_pointwise_weight(self, c):
        # past |x| ~ 170 (beta)_{|x|} overflows outside log space
        p = ModelParams(1.5, c)
        lat = enumerate_lattice(p.n, 250 if p.n < 3 else 20)
        rng = np.random.default_rng(len(c))
        for s in rng.integers(171, 260, size=300).tolist():
            cut = np.sort(rng.integers(0, s + 1, size=p.n - 1))
            lat.append(tuple(int(v) for v in np.diff(np.concatenate(([0], cut, [s])))))
        expected = np.array([weight(p, x) for x in lat])
        assert np.array_equal(weight_vector(p, lat), expected)
        assert expected[-1] > 0.0

    def test_log_weight_consistency(self):
        p = ModelParams(1.5, (0.2, 0.3))
        w = weight(p, (3, 2))
        expected = (
            shifted_factorial(1.5, 5)
            * 0.2**3 * 0.3**2
            / (math.factorial(3) * math.factorial(2))
            * 0.5**1.5
        )
        assert w == pytest.approx(expected, rel=1e-13)
        assert math.log(w) == pytest.approx(log_weight(p, (3, 2)), rel=1e-13)
