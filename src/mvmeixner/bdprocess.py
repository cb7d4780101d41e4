"""Probabilistic layer: weights, orthogonality, spectral transition
probabilities, Chapman-Kolmogorov, and an exact-jump stochastic simulator.

The spectral route expresses the transition probability through the
orthonormal vectors phi_m = sqrt(W) P_m sqrt(Wbar); the simulator runs the
continuous-time chain itself.  The two never share code, so their agreement
cross-validates the whole construction.  Every spectral sum over the P table
is read from one `_SpectralKernel`, built on the int array of points a
caller needs: x and y for `transition_prob`, the lattice |x| <= S for
`transition_matrix`, Chapman-Kolmogorov and the simulator's spectral column.
Its table is the product P = C V of `polynomials._product_table`.  The
orthogonality Gram walks no lattice: it is exact from W's factorial moments
(`_exact_gram`).  The moments of W, which tie the lattice weight to those
closed forms, are summed one shell |x| = s at a time, on shells built in
closed form by `model.lattice_points`.

The simulator is Gillespie's direct method run in lock-step over batches of
trajectories: each numpy step advances every live trajectory by one event and
drops those whose next jump lies beyond t.  Trajectory i reads the stream of
Generator(Philox(key=np.array([seed, i], dtype=np.uint64))).random(),
computed here as Philox4x64-10 blocks in numpy (one block of four words
serves two events), and every float operation is the one-trajectory loop's,
in the same order.  The exponential waits take math.log1p per element:
numpy's vectorised log1p is not correctly rounded on every build (on an
AVX-512 build it differs in the last bit on about 7% of draws), and a
one-ulp longer wait drops a jump that lands within ulps of t.  So the counts
do not depend on the batch size or on the numpy build's log1p, and match the
one-trajectory loop the tests keep as oracle.  Each batch's final states are
tallied by their `lattice_rank`, not as tuples.  The batches are split by
stride over one process per CPU in the affinity mask, through the fork
helper `_fork.run_shares` that `PolyTable.write_csv` shares (no setting),
and their tallies are merged in batch order, so neither the counts nor
their key order depend on how many CPUs ran them.

The counts are tested against the spectral column by a pooled chi-square,
whose p-value is the upper tail of the chi-square law in closed form
(`_chi2_upper_tail`), so the module needs numpy alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._fork import run_shares, usable_cpus
from .errors import (
    MeixnerError,
    NegativeTime,
    ParameterError,
    TailTooLarge,
    TruncationBoundary,
)
from .model import (
    MAX_DEGREE,
    ModelParams,
    MultiIndex,
    check_degree,
    compositions_upto,
    lattice_points,
    lattice_rank,
    shifted_factorial,
    tail_bound,
    weight,
    weight_vector,
)
from .polynomials import (
    _coeff_matrix,
    _composition_array,
    _product_table,
    _row_sum_coeffs,
    _u_columns,
)
from .spectral import SpectralData

# Simulator limits and comparison hygiene.
MAX_EVENTS_PER_TRAJECTORY = 1_000_000
POOL_EXPECTED_COUNT = 5.0
RNG_NAME = "philox"

# Truncation searches: moment_check's bound on the omitted second moment and
# S cap, choose_spectral_cutoff's shell bound (its M cap is model.MAX_DEGREE),
# and the mass defect at which _spectral_column stops growing S, and its S cap.
_MOMENT_TAIL_EPS = 1e-13
_MOMENT_MAX_S = 400
_SPECTRAL_CUTOFF_EPS = 1e-10
_COLUMN_MASS_TOL = 1e-8
_COLUMN_MAX_S = 120


# ---------------------------------------------------------------------------
# dual weight
# ---------------------------------------------------------------------------

def wbar(p: ModelParams, sd: SpectralData, m: MultiIndex) -> float:
    """Wbar(m) = (beta)_{|m|} cbar^m / m!."""
    out = shifted_factorial(p.beta, sum(m))
    for mj, cj in zip(m, sd.cbar):
        out *= cj**mj / math.factorial(mj)
    return out


# ---------------------------------------------------------------------------
# orthogonality and moments
# ---------------------------------------------------------------------------

@dataclass
class OrthogonalityReport:
    m_list: tuple[MultiIndex, ...]
    gram: np.ndarray       # sum_x W P_m P_m' over all of N_0^n
    residuals: np.ndarray  # |gram| off-diagonal, |gram * Wbar - 1| on diagonal

    @property
    def max_offdiag(self) -> float:
        off = self.residuals.copy()
        np.fill_diagonal(off, 0.0)
        return float(off.max()) if off.size else 0.0

    @property
    def max_diag(self) -> float:
        return float(np.diag(self.residuals).max())


def _exact_gram(
    p: ModelParams, sd: SpectralData, max_deg: int
) -> tuple[tuple[MultiIndex, ...], np.ndarray]:
    """sum_x W P_m P_m' over all of N_0^n for the m of compositions_upto(
    max_deg, n), each entry exact until it is rounded once to a float.

    P_m = sum_r coeff_r (-1)^{|r|} x^(r) in falling factorials, x^(a) x^(b)
    = sum_t T[a, b, t] x^(t) per coordinate, and W, the negative-multinomial
    law, has E_W[x^(s)] = (beta)_{|s|} prod_i q_i^{s_i}, q = c/(1-|c|)
    (Johnson, Kotz & Balakrishnan 1997, ch. 36).  So the Gram is C M C^T,
    with C of polynomials._coeff_matrix and M[r, r'] = sum_j (beta)_j pi_j,
    pi_j = [z^j] prod_i sum_t T[r_i, r'_i, t] (q_i z)^t.  beta, c and coeff
    are exact rationals, and c_i = c'_i / L, 1 - |c| = D / L give q_i =
    c'_i / D, so all of it is formed in Python ints.
    """
    n, d, K = p.n, max_deg, 2 * max_deg + 1
    m_list = compositions_upto(d, n)
    R = _composition_array(d, n)
    C = _coeff_matrix(p, sd, m_list)
    if not np.isfinite(C).all():  # an overflowed list has no exact value
        return m_list, np.full(C.shape, np.nan)
    num, den = zip(*map(float.as_integer_ratio, (C * (-1.0) ** R.sum(axis=1)).flat))
    scale = max(den)  # C and c as integers over common power-of-two denominators
    C_int = np.array([a * (scale // b) for a, b in zip(num, den)], dtype=object).reshape(C.shape)
    c_num, c_den = zip(*(v.as_integer_ratio() for v in p.c))
    c_int = [a * (max(c_den) // b) for a, b in zip(c_num, c_den)]
    D = max(c_den) - sum(c_int)
    T = np.zeros((d + 1, d + 1, K), dtype=object)
    for a, b in np.ndindex(d + 1, d + 1):
        for k in range(min(a, b) + 1):
            T[a, b, a + b - k] = math.comb(a, k) * math.comb(b, k) * math.factorial(k)
    powers = np.array([[ci**j for j in range(K)] for ci in c_int], dtype=object)
    # (beta)_j / D^j over the common denominator (b_den D)^(2d)
    b_num, b_den = p.beta.as_integer_ratio()
    rising = [math.prod(range(b_num, b_num + j * b_den, b_den)) for j in range(K)]
    moments = np.array([v * (b_den * D) ** (K - 1 - j) for j, v in enumerate(rising)], dtype=object)
    # C M C^T = sum_r C[:, r] (C M[r, :])^T: only one row's D^j pi_j are held
    G = np.zeros((len(m_list), len(m_list)), dtype=object)
    for r, row in enumerate(R):
        poly = np.ones((len(R), 1), dtype=object)
        for i in range(n):
            coord = T[row[i], R[:, i]] * powers[i]
            prod = np.zeros_like(coord)
            for j in range(poly.shape[-1]):
                prod[:, j:] += poly[:, j, None] * coord[:, :K - j]
            poly = prod
        G += np.multiply.outer(C_int[:, r], C_int @ poly.dot(moments))
    total = scale**2 * (b_den * D) ** (2 * d)
    try:
        return m_list, np.array([g / total for g in G.flat]).reshape(G.shape)
    except OverflowError:  # an entry beyond the float range
        return m_list, np.full(G.shape, np.inf)


def orthogonality_check(
    p: ModelParams, sd: SpectralData, max_deg: int
) -> OrthogonalityReport:
    """Gram matrix of {P_m : |m| <= max_deg} under W over all of N_0^n, exact
    with no cutoff (_exact_gram), against the norms delta_mm' / Wbar(m)."""
    m_list, gram = _exact_gram(p, sd, max_deg)
    wbars = np.array([wbar(p, sd, m) for m in m_list])
    residuals = np.abs(gram)
    np.fill_diagonal(residuals, np.abs(np.diag(gram) * wbars - 1.0))
    return OrthogonalityReport(m_list=m_list, gram=gram, residuals=residuals)


def choose_orthogonality_S(
    p: ModelParams, sd: SpectralData, max_deg: int, tail_eps: float = 1e-8, start: int = 20
) -> int:
    """The first S of start, start+10, ... <= 400 (else TailTooLarge) at which
    the Gram summed over {|x| <= S} is certified within tail_eps of the exact
    one: on |x| = s >= 1, |P_m| <= A s^max_deg with A = max_m sum_r |coeff_r|,
    so the omitted sum is at most A^2 tail_bound(S, 2 max_deg)."""
    lists = (_row_sum_coeffs(p.beta, _u_columns(sd), m) for m in compositions_upto(max_deg, p.n))
    A = max(np.abs(coeff).sum() for coeff in lists)
    for S in range(start, 401, 10):
        if A**2 * tail_bound(p, S, 2 * max_deg) <= tail_eps:
            return S
    raise TailTooLarge(f"no S <= 400 brings the Gram tail bound to {tail_eps:.1e}")


def moment_check(p: ModelParams, S: int | None = None) -> dict[str, float]:
    """First and second moments of W, summed over {|x| <= S} one shell at a
    time, against the closed forms c_j beta/(1-|c|) and
    beta(beta+1)c_j c_k/(1-|c|)^2 (+ the diagonal correction).

    With S=None, S is the first of 20, 40, ... whose omitted second moment
    tail_bound(S, 2) is at most _MOMENT_TAIL_EPS; TailTooLarge if none up to
    _MOMENT_MAX_S is.
    """
    if S is None:
        S = 20
        while (tail := tail_bound(p, S, 2)) > _MOMENT_TAIL_EPS:
            if S >= _MOMENT_MAX_S:
                raise TailTooLarge(
                    f"omitted second moment {tail:.3e} > {_MOMENT_TAIL_EPS:.0e} "
                    f"at S={S}; no S <= {_MOMENT_MAX_S} reaches it"
                )
            S += 20
    mean = np.zeros(p.n)
    second = np.zeros((p.n, p.n))
    for s in range(S + 1):
        X = lattice_points(p.n, s, s)
        w = weight_vector(p, X)
        mean += w @ X
        second += (X.T * w) @ X
    q = p.c_mass
    c = np.asarray(p.c)

    mean_exact = c * p.beta / (1.0 - q)
    second_exact = (
        p.beta * (p.beta + 1.0) * np.outer(c, c) / (1.0 - q) ** 2
        + np.diag(p.beta * c / (1.0 - q))
    )
    return {
        "mean": float(np.abs(mean - mean_exact).max()),
        "second": float(np.abs(second - second_exact).max()),
        "S": float(S),
    }


# ---------------------------------------------------------------------------
# spectral transition probability
# ---------------------------------------------------------------------------

@dataclass
class TransitionReport:
    """One (x, y, t) spectral evaluation in the phi and the reduced form,
    with the gap between the two."""

    x: MultiIndex
    y: MultiIndex
    t: float
    M_cutoff: int
    spectral_value: float
    reduced_value: float
    forms_gap: float
    nonnegative: bool


def choose_spectral_cutoff(
    p: ModelParams,
    sd: SpectralData,
    x: MultiIndex,
    y: MultiIndex,
    t: float,
) -> int:
    """Smallest degree cutoff whose next shell is provably below
    _SPECTRAL_CUTOFF_EPS; TailTooLarge if none up to MAX_DEGREE is, or if
    (beta)_M, and with it Wbar, overflows at the cutoff found.

    Shell |m| = M contributes at most sqrt(W(x)/W(y)) * exp(-lam_min M t) by
    orthonormality (shell sums of phi products are bounded by 1), so the
    bound is t-dependent: short times need far more shells.
    """
    if not 0 < t < math.inf:
        raise NegativeTime(f"adaptive cutoff needs 0 < t < inf, got {t}")
    prefactor = math.exp(0.5 * (math.log(weight(p, x)) - math.log(weight(p, y))))
    M = 1
    while (shell := prefactor * math.exp(-sd.lam[0] * M * t)) >= _SPECTRAL_CUTOFF_EPS:
        if M >= MAX_DEGREE:
            raise TailTooLarge(
                f"shell bound {shell:.3e} >= {_SPECTRAL_CUTOFF_EPS:.0e} at "
                f"M={M} (t={t}); no M <= {MAX_DEGREE} reaches it"
            )
        M += 1
    _check_wbar_finite(p.beta, M, TailTooLarge)
    return M


def _check_wbar_finite(beta: float, M: int, error: type[MeixnerError]) -> None:
    """error unless (beta)_M is finite.  Wbar(m) = (beta)_{|m|} cbar^m / m!,
    and every factor of (beta)_d is positive, so an inf (beta)_d at any
    d <= M makes (beta)_M inf, and Wbar inf * 0 = NaN where cbar^m / m!
    underflows; the message names the first such d."""
    if math.isinf(shifted_factorial(beta, M)):
        d = next(d for d in range(M + 1) if math.isinf(shifted_factorial(beta, d)))
        raise error(
            f"(beta)_{d} overflows at beta={beta}, so Wbar is not a float "
            f"from degree {d} on (cutoff M={M})"
        )


def transition_prob(
    p: ModelParams,
    sd: SpectralData,
    x: MultiIndex,
    y: MultiIndex,
    t: float,
    M: int | None = None,
) -> TransitionReport:
    """T(x, y; t) truncated at |m| <= M, computed twice:

    - phi form: phi_0(x)/phi_0(y) * sum_m exp(-E(m) t) phi_m(x) phi_m(y)
    - reduced:  W(x) * sum_m Wbar(m) exp(-E(m) t) P_m(x) P_m(y)

    The two are algebraically identical; their gap is reported and must sit
    at rounding level.

    Index convention: x is the state occupied at time t, y the start.
    Conservation therefore sums over the first argument,
    sum_x T(x, y; t) = 1, which is also what the t -> infinity limit
    T -> W(x) requires.

    With M=None the cutoff is chosen adaptively via choose_spectral_cutoff
    (t must then be positive, and short t may raise TailTooLarge, as does
    a cutoff at which (beta)_M overflows).  NegativeTime unless
    0 <= t < inf, ParameterError if M exceeds MAX_DEGREE or (beta)_M
    overflows, TruncationBoundary unless x and y are points of N_0^n.
    """
    if not 0 <= t < math.inf:
        raise NegativeTime(f"t must lie in [0, inf), got {t}")
    for z in (x, y):
        if len(z) != p.n or min(z) < 0:
            raise TruncationBoundary(f"{tuple(z)} is not a point of N_0^{p.n}")
    if M is None:
        M = choose_spectral_cutoff(p, sd, x, y, t)
    kernel = _SpectralKernel(p, sd, M, np.array([x, y], dtype=int))
    reduced = float(kernel.row(0, t)[1])
    sqrt_w = np.sqrt(kernel.w)
    phi = np.sqrt(kernel.wbar)[:, None] * kernel.P * sqrt_w
    phi_sum = (np.exp(-kernel.energy * t) * phi[:, 0]) @ phi[:, 1]
    value = float(sqrt_w[0] / sqrt_w[1] * phi_sum)
    gap = abs(value - reduced)
    return TransitionReport(
        x=tuple(x),
        y=tuple(y),
        t=t,
        M_cutoff=M,
        spectral_value=value,
        reduced_value=reduced,
        forms_gap=gap,
        nonnegative=value >= -1e-9,
    )


def _position(x: MultiIndex, n: int, S: int) -> int:
    """The position of x in {|x| <= S}, graded-lex; TruncationBoundary unless
    x is a point of it."""
    if len(x) != n or min(x) < 0 or sum(x) > S:
        raise TruncationBoundary(f"x={tuple(x)} is not in the lattice |x| <= S={S}")
    return int(lattice_rank(np.array([x]))[0])


class _SpectralKernel:
    """T(x, y; t) = W(x) sum_{|m| <= M} Wbar(m) e^{-E(m) t} P_m(x) P_m(y)
    on the points of the int array X (shape (N, n)), with the P table, W,
    Wbar and E computed once; x and y are given as positions into X.

    The P table is the product P = C V of _product_table, whose every value
    is independent of the other points, so `extend`, which appends points
    and evaluates only those, grows the table that a build on all the points
    gives, bit for bit.  A row or a column costs O(#m * N); only `matrix`
    builds the dense N x N kernel.  The orthogonality Gram is not formed
    here: _exact_gram sums it over all of N_0^n from W's factorial moments.
    """

    def __init__(self, p: ModelParams, sd: SpectralData, M: int, X: np.ndarray):
        check_degree(M, "degree |m|")  # before (beta)_M, so M > MAX_DEGREE says so
        _check_wbar_finite(p.beta, M, ParameterError)
        self.p, self.sd, self.M = p, sd, M
        self.m_list = compositions_upto(M, p.n)
        self.P = _product_table(p, sd, M, X)
        self.w = weight_vector(p, X)
        self.wbar = np.array([wbar(p, sd, m) for m in self.m_list])
        self.energy = np.array([sd.energy(m) for m in self.m_list])

    def extend(self, X_new: np.ndarray) -> None:
        """Append the points X_new.  P and W are evaluated point by point,
        so the grown arrays equal those built on all the points at once."""
        N = self.P.shape[1]
        P = np.empty((len(self.m_list), N + len(X_new)))
        P[:, :N] = self.P
        # the old table is dropped before the new points are evaluated
        self.P = P
        _product_table(self.p, self.sd, self.M, X_new, P[:, N:])
        self.w = np.concatenate((self.w, weight_vector(self.p, X_new)))

    def decay(self, t: float) -> np.ndarray:
        """Wbar(m) e^{-E(m) t} over the degree list."""
        return self.wbar * np.exp(-self.energy * t)

    def matrix(self, t: float) -> np.ndarray:
        P = self.P
        return self.w[:, None] * (P.T @ (self.decay(t)[:, None] * P))

    def column(self, j: int, t: float) -> np.ndarray:
        """T(., X[j]; t): the distribution at time t from the start X[j]."""
        P = self.P
        return self.w * (P.T @ (self.decay(t) * P[:, j]))

    def row(self, i: int, t: float) -> np.ndarray:
        """T(X[i], .; t): the chance of X[i] at time t from every start."""
        P = self.P
        return self.w[i] * ((self.decay(t) * P[:, i]) @ P)


def transition_matrix(
    p: ModelParams, sd: SpectralData, t: float, M: int, S: int
) -> np.ndarray:
    """T(x, y; t) for all |x|, |y| <= S (graded-lex), reduced form.

    Columns are indexed by the start y: each column is a probability
    distribution over the first index, accurate where the state stays well
    inside the truncation.
    """
    if not 0 <= t < math.inf:
        raise NegativeTime(f"t must lie in [0, inf), got {t}")
    return _SpectralKernel(p, sd, M, lattice_points(p.n, 0, S)).matrix(t)


def chapman_kolmogorov_check(
    p: ModelParams,
    sd: SpectralData,
    x: MultiIndex,
    y: MultiIndex,
    t: float,
    t_prime: float,
    S: int,
    M: int,
) -> dict[str, float]:
    """|T(x,y; t+t') - sum_{|z| <= S} T(x,z; t) T(z,y; t')| with an estimate
    of what the z- and m-truncations can contribute."""
    ix, iy = _position(x, p.n, S), _position(y, p.n, S)
    kernel = _SpectralKernel(p, sd, M, lattice_points(p.n, 0, S))
    first_leg = kernel.row(ix, t)
    second_leg = kernel.column(iy, t_prime)
    direct = kernel.row(ix, t + t_prime)[iy]
    composed = first_leg @ second_leg
    residual = abs(direct - composed)

    # the z-sum misses sum_{|z|>S} T(x,z;t) T(z,y;t'); the second factor's
    # escaped column mass times the largest first-leg kernel value bounds it
    escaped = abs(1.0 - float(second_leg.sum()))
    z_escape = escaped * float(np.abs(first_leg).max())
    # m_list is graded-lex, so the shell |m| = M is its tail
    top = slice(-math.comb(M + p.n - 1, p.n - 1), None)
    P = kernel.P
    shell = kernel.w[ix] * float(
        np.abs(kernel.decay(t + t_prime)[top] * P[top, ix] * P[top, iy]).sum()
    )
    return {
        "residual": float(residual),
        "direct": float(direct),
        "composed": float(composed),
        "start_column_defect": escaped,
        "z_escape_estimate": z_escape,
        "top_shell_contribution": shell,
    }


# ---------------------------------------------------------------------------
# exact-jump simulation
# ---------------------------------------------------------------------------

@dataclass
class SimulationResult:
    x0: MultiIndex
    t: float
    seed: int
    n_traj: int
    counts: Counter = field(repr=False)
    cap_hits: int = 0
    bit_generator: str = RNG_NAME


# Philox4x64-10 (Salmon et al. 2011, Random123): round multipliers and the
# Weyl increments of the key
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Trajectories advanced together; bounds the working set (a single 200k batch
# doubled the simulate peak RSS) while keeping the per-step overhead small
_SIM_BATCH = 16_384


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m * x, from 32-bit halves:
    hi = x_hi m_hi + (x_hi m_lo >> 32) + (mid >> 32) with
    mid = (x_lo m_lo >> 32) + (x_hi m_lo & mask) + x_lo m_hi, a sum that
    cannot exceed 2^64 - 1.  Each step after the first products is in place."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _LOW32
    hi = x >> _SHIFT32
    mid = x_lo * m_lo
    mid >>= _SHIFT32
    cross = hi * m_lo
    x_lo *= m_hi
    mid += x_lo
    mid += np.bitwise_and(cross, _LOW32, out=x_lo)
    mid >>= _SHIFT32
    cross >>= _SHIFT32
    hi *= m_hi
    hi += cross
    hi += mid
    return hi, x * np.uint64(m)


def _philox_block(counter: int, seed: int, ids: np.ndarray) -> np.ndarray:
    """Philox4x64-10 at counter (counter, 0, 0, 0) under the keys (seed, i)
    for i in ids, shape (4, len(ids)).

    numpy's Philox raises its counter before each block, so the stream of
    Generator(Philox(key=np.array([seed, i], dtype=np.uint64))) is the words
    of counters 1, 2, ...  The counter and key word 0 are common to every
    trajectory, so a word stays a Python int mod 2^64 (a uint64 scalar add
    warns when it wraps) until the key word i reaches it: c0, c1 and c3
    through round 0, c3 through round 1.
    """
    (M0, M1), (W0, W1) = _PHILOX_M, _PHILOX_W
    k0, k1 = int(seed), ids.copy()
    # round 0: c2 = 0 leaves hi1 = lo1 = 0
    hi0, lo0 = divmod(M0 * counter, 2**64)
    c0, c1, c2, c3 = k0, 0, ids ^ np.uint64(hi0), lo0
    for r in range(1, 10):
        k0 = (k0 + W0) % 2**64
        k1 += np.uint64(W1)
        hi0, lo0 = divmod(M0 * c0, 2**64) if r == 1 else _mulhilo(M0, c0)
        hi1, lo1 = _mulhilo(M1, c2)
        hi1 ^= c1
        hi1 ^= np.uint64(k0)
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Generator.random()'s doubles: the top 53 bits of each word over 2^53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _simulate_batch(
    p: ModelParams,
    x0: MultiIndex,
    t_end: float,
    seed: int,
    ids: np.ndarray,
    max_events: int,
) -> tuple[np.ndarray, int]:
    """Final states of the trajectories ids, shape (len(ids), n), and how
    many of them reached max_events.

    Lock-step: step k draws event k of every live trajectory from words
    2k mod 4 and 2k mod 4 + 1 of its block k//2 + 1, and drops the
    trajectories whose next jump lies beyond t_end.  Every float operation is
    the one-trajectory loop's, in its order, so the states are bit-for-bit
    those of that loop driven by trajectory i's Philox stream.
    """
    n, c, beta = p.n, p.c, p.beta
    final = np.tile(np.array(x0, dtype=np.int64), (len(ids), 1))
    rows = np.arange(len(ids))
    X = final.copy()
    sx = X.sum(axis=1)
    t = np.zeros(len(ids))
    for k in range(max_events):
        if not len(rows):
            return final, 0
        if k % 2 == 0:
            u_wait, u_pick, u_next_wait, u_next_pick = _uniforms(
                _philox_block(k // 2 + 1, seed, ids[rows])
            )
        else:
            u_wait, u_pick = u_next_wait, u_next_pick
        per_birth = beta + sx
        total = n * per_birth
        for j in range(n):
            total += X[:, j] / c[j]
        # math.log1p per element: numpy's vectorised log1p may differ in the
        # last bit, and a one-ulp shift in a wait flips a jump landing
        # within ulps of t_end
        log_stay = np.fromiter(map(math.log1p, (-u_wait).tolist()), float, len(rows))
        t += -log_stay / total
        over = t > t_end
        if over.any():
            final[rows[over]] = X[over]
            keep = ~over
            rows, X, sx, t = rows[keep], X[keep], sx[keep], t[keep]
            per_birth, total, u_pick = per_birth[keep], total[keep], u_pick[keep]
            # after an odd step no word of the block is read again
            if k % 2 == 0:
                u_next_wait, u_next_pick = u_next_wait[keep], u_next_pick[keep]
        pick = u_pick * total
        births = n * per_birth
        birth = pick < births
        b = np.flatnonzero(birth)
        j_birth = np.minimum((pick[b] / per_birth[b]).astype(np.int64), n - 1)
        X[b, j_birth] += 1
        # a death removes from the first j whose running sum of x_j/c_j,
        # over the nonzero x_j in order, exceeds the pick (else the last one);
        # subtracting 0.0 where x_j = 0 leaves the running sum as it is
        d = np.flatnonzero(~birth)
        Xd = X[d]
        rest = pick[d] - births[d]
        target = np.zeros(len(d), dtype=np.int64)
        open_ = np.ones(len(d), dtype=bool)
        for j in range(n):
            hit = open_ & (Xd[:, j] != 0)
            target[hit] = j
            rest -= np.where(hit, Xd[:, j] / c[j], 0.0)
            open_ &= ~(hit & (rest < 0.0))
        X[d, target] -= 1
        sx += np.where(birth, 1, -1)
    final[rows] = X
    return final, len(rows)


def _tally(final: np.ndarray) -> dict[MultiIndex, int]:
    """The distinct rows of final (shape (N, n)) with their counts.  Rows are
    told apart by their lattice_rank, an int64 below C(|x| + n, n); beyond
    that range they are counted as tuples."""
    n = final.shape[1]
    if math.comb(int(final.sum(axis=1).max(initial=0)) + n, n) > np.iinfo(np.int64).max:
        return Counter(map(tuple, final.tolist()))
    _, first, counts = np.unique(lattice_rank(final), return_index=True, return_counts=True)
    return dict(zip(map(tuple, final[first].tolist()), counts.tolist()))


def _batch_tally(
    p: ModelParams, x0: MultiIndex, t: float, seed: int, n_traj: int, start: int
) -> tuple[dict[MultiIndex, int], int]:
    """The tally and cap hits of the batch of trajectories start, start+1, ...
    (at most _SIM_BATCH of them, below n_traj)."""
    ids = np.arange(start, min(start + _SIM_BATCH, n_traj), dtype=np.uint64)
    final, capped = _simulate_batch(p, x0, t, seed, ids, MAX_EVENTS_PER_TRAJECTORY)
    return _tally(final), capped


def simulate(
    p: ModelParams,
    x0: MultiIndex,
    t: float,
    seed: int,
    n_traj: int,
) -> SimulationResult:
    """n_traj independent exact-jump trajectories of the chain with rates
    B_j = beta+|x|, D_j = x_j/c_j, each run to time t.

    Trajectory i draws from Philox4x64-10 keyed by the uint64 pair
    (seed, i), so results do not depend on execution order or batching;
    trajectories hitting the event cap MAX_EVENTS_PER_TRAJECTORY are counted
    in cap_hits and contribute their state at the cap.  NegativeTime
    unless 0 <= t < inf, ParameterError unless 0 <= seed < 2**64.

    The batches of _SIM_BATCH trajectories are split by stride over k
    processes, k the number of CPUs in this process's affinity mask but no
    more than there are batches (there is no setting): share s runs batches
    s, s + k, s + 2k, ..., share 0 in the caller and the others in forked
    workers (_fork.run_shares).  Each batch is tallied where it ran, and the
    tallies are merged here in batch order, so `counts`, down to its key
    order, and `cap_hits` are those of one process running the batches in
    turn.  With k = 1 nothing is forked.  A worker's exception is raised
    here as its own type, and every worker is reaped before simulate
    returns or raises.
    """
    if not 0 <= t < math.inf:
        raise NegativeTime(f"t must lie in [0, inf), got {t}")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    n_batches = len(range(0, n_traj, _SIM_BATCH))
    k = max(1, min(n_batches, usable_cpus()))

    def share(s: int) -> list[tuple[dict[MultiIndex, int], int]]:
        return [
            _batch_tally(p, x0, t, seed, n_traj, _SIM_BATCH * b) for b in range(s, n_batches, k)
        ]

    shares = run_shares(share, k, "batches")
    counts: Counter = Counter()
    cap_hits = 0
    for b in range(n_batches):
        tally, capped = shares[b % k][b // k]
        counts.update(tally)
        cap_hits += capped
    return SimulationResult(
        x0=tuple(x0), t=t, seed=seed, n_traj=n_traj, counts=counts, cap_hits=cap_hits
    )


# ---------------------------------------------------------------------------
# simulated vs spectral comparison
# ---------------------------------------------------------------------------

@dataclass
class StateRow:
    state: MultiIndex
    count: int
    frequency: float
    stderr: float
    spectral: float
    z: float | None  # None when the expected count is below the pooling floor


@dataclass
class ComparisonReport:
    rows: list[StateRow]
    chi2: float
    dof: int
    p_value: float
    max_abs_z: float
    pooled_rest_expected: float
    sim: SimulationResult
    clamped_mass: float  # sum of |T| over the negative spectral entries, set to 0


def compare_sim_spectral(
    p: ModelParams,
    sd: SpectralData,
    sim: SimulationResult,
    M: int,
) -> ComparisonReport:
    """Per-state z-scores against the spectral row T(x0, .; t), plus a
    chi-square over the states whose expected count reaches
    POOL_EXPECTED_COUNT (everything below pools into one remainder cell),
    with its p-value from _chi2_upper_tail.  Negative spectral entries,
    which the truncation at M leaves at short t, are set to 0 and their
    total magnitude is reported as clamped_mass."""
    N = sim.n_traj
    S = max(max((sum(s) for s in sim.counts), default=0), sum(sim.x0)) + 5
    probs, X = _spectral_column(p, sd, sim.x0, sim.t, M, S)
    # np.maximum keeps a NaN
    clamped_mass = float(np.maximum(-probs, 0.0).sum())

    rows: list[StateRow] = []
    cells: list[tuple[float, int]] = []
    covered_p = 0.0
    covered_n = 0
    max_abs_z = 0.0
    for s, prob in zip(map(tuple, X.tolist()), probs):
        prob = max(float(prob), 0.0)
        count = sim.counts.get(s, 0)
        if count == 0 and N * prob < POOL_EXPECTED_COUNT:
            continue
        freq = count / N
        stderr = math.sqrt(max(freq * (1.0 - freq), 0.0) / N)
        if N * prob >= POOL_EXPECTED_COUNT:
            z = (freq - prob) / math.sqrt(prob * (1.0 - prob) / N)
            cells.append((prob, count))
            covered_p += prob
            covered_n += count
            max_abs_z = max(max_abs_z, abs(z))
        else:
            z = None
        rows.append(
            StateRow(
                state=s, count=count, frequency=freq, stderr=stderr,
                spectral=prob, z=z,
            )
        )
    rest_p = max(1.0 - covered_p, 0.0)
    rest_n = N - covered_n
    if rest_p * N > 1e-9:
        cells.append((rest_p, rest_n))
    stat = math.fsum((n_obs - N * pr) ** 2 / (N * pr) for pr, n_obs in cells)
    dof = max(len(cells) - 1, 1)
    return ComparisonReport(
        rows=rows,
        chi2=stat,
        dof=dof,
        p_value=_chi2_upper_tail(dof, stat),
        max_abs_z=max_abs_z,
        pooled_rest_expected=rest_p * N,
        sim=sim,
        clamped_mass=clamped_mass,
    )


def _chi2_upper_tail(dof: int, stat: float) -> float:
    """P(chi2_dof > stat) for an integer dof >= 1: the regularized upper
    incomplete gamma Q(s, y) at s = dof/2, y = stat/2 in its Poisson-sum
    form (Abramowitz & Stegun 26.4.4-5).  With h = s - floor(s), the terms
    T_j = e^-y y^(j+h) / Gamma(j+h+1), j >= 0, sum to 1 less erfc(sqrt y)
    when h = 1/2; the j < floor(s) with that erfc give Q, the rest 1 - Q.

    The smaller side is summed from its largest term, formed once in log
    space, by the ratios T_(j-1) = T_j (j+h)/y and T_(j+1) = T_j y/(j+h+1):
    Q itself when y >= s, else 1 minus the lower sum, which stops once a
    term is below 1e-17 of it.  A NaN stat gives NaN, so no p-value test
    passes on it.
    """
    if math.isnan(stat):
        return stat
    if stat <= 0.0:
        return 1.0
    if stat == math.inf:
        return 0.0
    k, h, y = dof // 2, dof % 2 / 2, stat / 2
    upper = y >= k + h
    j = k - 1 if upper else k  # the largest term of the side summed
    t = math.exp((j + h) * math.log(y) - y - math.lgamma(j + h + 1)) if j >= 0 else 0.0
    if upper:
        total = math.erfc(math.sqrt(y)) if h else 0.0
        for j in range(k - 1, -1, -1):
            total += t
            t *= (j + h) / y
        return total
    total = 0.0
    while t > 1e-17 * total:
        total += t
        j += 1
        t *= y / (j + h)
    return 1.0 - total


def _spectral_column(
    p: ModelParams,
    sd: SpectralData,
    x0: MultiIndex,
    t: float,
    M: int,
    S: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Distribution T(., x0; t) over {|x| <= S} and those points as an int
    array, growing S by 10 until the column sums to 1 within
    _COLUMN_MASS_TOL; TailTooLarge if no S <= _COLUMN_MAX_S does.

    The sum over the whole lattice is exactly 1 for every M (orthogonality
    to P_0), so the mass test closes only the escape from |x| <= S; it is
    blind to the spectral truncation at M.  Each step evaluates only the new
    shells, and the column is the one a kernel built at the final S gives.
    """
    j = _position(x0, p.n, S)
    kernel = _SpectralKernel(p, sd, M, lattice_points(p.n, 0, S))
    while True:
        col = kernel.column(j, t)
        defect = abs(1.0 - float(col.sum()))
        if defect <= _COLUMN_MASS_TOL:
            return col, lattice_points(p.n, 0, S)
        if S >= _COLUMN_MAX_S:
            raise TailTooLarge(
                f"spectral column mass defect {defect:.3e} > {_COLUMN_MASS_TOL:.0e} "
                f"at S={S}; no S <= {_COLUMN_MAX_S} reaches it"
            )
        kernel.extend(lattice_points(p.n, S + 1, S + 10))
        S += 10
