"""Probabilistic layer: weights, orthogonality, spectral transition
probabilities, Chapman-Kolmogorov, and an exact-jump stochastic simulator.

The spectral route expresses the transition probability through the
orthonormal vectors phi_m = sqrt(W) P_m sqrt(Wbar); the simulator runs the
continuous-time chain itself.  The two never share code, so their agreement
cross-validates the whole construction.  Every W- and Wbar-weighted sum over
the P table is read from one `_SpectralKernel`, built on the points a caller
needs: x and y for `transition_prob`, the lattice |x| <= S for the
orthogonality Gram, `transition_matrix`, Chapman-Kolmogorov and the
simulator's spectral column.

The simulator is Gillespie's direct method run in lock-step over batches of
trajectories: each numpy step advances every live trajectory by one event and
drops those whose next jump lies beyond t.  Trajectory i reads the stream of
Generator(Philox(key=[seed, i])).random(), computed here as Philox4x64-10
blocks in numpy (one block of four words serves two events), and every float
operation is the one-trajectory loop's, in the same order.  The exponential
waits take math.log1p per element: numpy's vectorised log1p is not correctly
rounded on every build (on an AVX-512 build it differs in the last bit on
about 7% of draws), and a one-ulp longer wait drops a jump that lands within
ulps of t.  So the counts do not depend on the batch size or on the numpy
build's log1p, and match the one-trajectory loop the tests keep as oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeTime, ParameterError, TailTooLarge, TruncationBoundary
from .model import (
    ModelParams,
    MultiIndex,
    compositions,
    compositions_upto,
    enumerate_lattice,
    lattice_rank,
    shifted_factorial,
    tail_bound,
    weight,
    weight_vector,
)
from .polynomials import _table_values, meixner_eval
from .spectral import SpectralData

# Simulator limits and comparison hygiene.
MAX_EVENTS_PER_TRAJECTORY = 1_000_000
POOL_EXPECTED_COUNT = 5.0
RNG_NAME = "philox"

# Truncation searches: the S step and cap of choose_orthogonality_S, the
# bound on the omitted second moment and the S cap of moment_check, the shell
# bound and M cap of choose_spectral_cutoff, and the mass defect at which
# _spectral_column stops growing S.
_ORTH_S_STEP = 10
_ORTH_MAX_S = 400
_MOMENT_TAIL_EPS = 1e-13
_MOMENT_MAX_S = 400
_SPECTRAL_CUTOFF_EPS = 1e-10
_MAX_SPECTRAL_M = 200
_COLUMN_MASS_TOL = 1e-8


# ---------------------------------------------------------------------------
# dual weight
# ---------------------------------------------------------------------------

def wbar(p: ModelParams, sd: SpectralData, m: MultiIndex) -> float:
    """Wbar(m) = (beta)_{|m|} cbar^m / m!."""
    out = shifted_factorial(p.beta, sum(m))
    for mj, cj in zip(m, sd.cbar):
        out *= cj**mj / math.factorial(mj)
    return out


def phi_hat(
    p: ModelParams, sd: SpectralData, m: MultiIndex, x: MultiIndex
) -> float:
    """Orthonormal vector entry sqrt(W(x)) P_m(x) sqrt(Wbar(m))."""
    return math.sqrt(weight(p, x)) * meixner_eval(p, sd, m, x) * math.sqrt(
        wbar(p, sd, m)
    )


# ---------------------------------------------------------------------------
# orthogonality and moments
# ---------------------------------------------------------------------------

@dataclass
class OrthogonalityReport:
    m_list: tuple[MultiIndex, ...]
    gram: np.ndarray       # sum_x W P_m P_m'
    residuals: np.ndarray  # |gram| off-diagonal, |gram * Wbar - 1| on diagonal
    S: int
    tail_term: float       # tail_bound(S) * max |P|^2

    @property
    def max_offdiag(self) -> float:
        off = self.residuals.copy()
        np.fill_diagonal(off, 0.0)
        return float(off.max()) if off.size else 0.0

    @property
    def max_diag(self) -> float:
        return float(np.diag(self.residuals).max())


def orthogonality_check(
    p: ModelParams,
    sd: SpectralData,
    max_deg: int,
    S: int,
    tail_eps: float = 1e-8,
) -> OrthogonalityReport:
    """Gram matrix of {P_m : |m| <= max_deg} under W on {|x| <= S} against
    the exact norms delta_mm' / Wbar(m).

    Raises TailTooLarge when tail_bound(S) * max|P|^2 exceeds tail_eps: the
    omitted lattice mass could then swamp the requested resolution.
    """
    kernel = _SpectralKernel(p, sd, max_deg, np.array(enumerate_lattice(p.n, S), dtype=int))
    max_p = float(np.abs(kernel.P).max())
    tail_term = tail_bound(p, S) * max_p**2
    if tail_term > tail_eps:
        raise TailTooLarge(
            f"tail_bound(S={S}) * max|P|^2 = {tail_term:.3e} > {tail_eps:.1e}; "
            "increase S"
        )
    gram = kernel.gram()
    residuals = np.abs(gram)
    diag = np.abs(np.diag(gram) * kernel.wbar - 1.0)
    np.fill_diagonal(residuals, diag)
    return OrthogonalityReport(
        m_list=kernel.m_list, gram=gram, residuals=residuals, S=S, tail_term=tail_term
    )


def choose_orthogonality_S(
    p: ModelParams,
    sd: SpectralData,
    max_deg: int,
    tail_eps: float = 1e-8,
    start: int = 20,
) -> int:
    """Smallest tried S with tail_bound(S) * max|P|^2 <= tail_eps.

    max|P| over |x| <= S is kept as a running maximum: each step evaluates
    every P only on the new shells S_prev < |x| <= S, one shell at a time to
    keep the arrays small, and the table evaluator works point by point, so
    every step sees the same values a full table would hold.
    """
    m_list = compositions_upto(max_deg, p.n)
    max_p = 0.0
    done = -1  # shells |x| <= done are already in max_p
    S = start
    while S <= _ORTH_MAX_S:
        for s in range(done + 1, S + 1):
            values = _table_values(p, sd, m_list, np.array(compositions(s, p.n), dtype=int))
            # np.maximum, unlike max(), keeps a NaN
            max_p = float(np.maximum(max_p, np.abs(values).max()))
        done = S
        if tail_bound(p, S) * max_p**2 <= tail_eps:
            return S
        S += _ORTH_S_STEP
    raise TailTooLarge(f"no S <= {_ORTH_MAX_S} reaches tail target {tail_eps:.1e}")


def moment_check(p: ModelParams, S: int | None = None) -> dict[str, float]:
    """First and second moments of W by direct lattice summation against the
    closed forms c_j beta/(1-|c|) and beta(beta+1)c_j c_k/(1-|c|)^2 (+ the
    diagonal correction).

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
    lat = enumerate_lattice(p.n, S)
    w = weight_vector(p, lat)
    X = np.array(lat, dtype=float)
    q = p.c_mass
    c = np.asarray(p.c)

    mean = w @ X
    mean_exact = c * p.beta / (1.0 - q)
    second = (X.T * w[None, :]) @ X
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
    _SPECTRAL_CUTOFF_EPS; TailTooLarge if none up to _MAX_SPECTRAL_M is.

    Shell |m| = M contributes at most sqrt(W(x)/W(y)) * exp(-lam_min M t) by
    orthonormality (shell sums of phi products are bounded by 1), so the
    bound is t-dependent: short times need far more shells.
    """
    if t <= 0:
        raise NegativeTime(f"adaptive cutoff needs t > 0, got {t}")
    prefactor = math.exp(0.5 * (math.log(weight(p, x)) - math.log(weight(p, y))))
    M = 1
    while (shell := prefactor * math.exp(-sd.lam[0] * M * t)) >= _SPECTRAL_CUTOFF_EPS:
        if M >= _MAX_SPECTRAL_M:
            raise TailTooLarge(
                f"shell bound {shell:.3e} >= {_SPECTRAL_CUTOFF_EPS:.0e} at "
                f"M={M} (t={t}); no M <= {_MAX_SPECTRAL_M} reaches it"
            )
        M += 1
    return M


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
    (t must then be positive, and short t may raise TailTooLarge).
    TruncationBoundary unless x and y are points of N_0^n.
    """
    if t < 0:
        raise NegativeTime(f"t must be >= 0, got {t}")
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

    A row or a column costs O(#m * N); only `matrix` builds the dense
    N x N kernel.  `extend` appends points, evaluating only those.
    """

    def __init__(self, p: ModelParams, sd: SpectralData, M: int, X: np.ndarray):
        self.p, self.sd = p, sd
        self.m_list = compositions_upto(M, p.n)
        self.P = _table_values(p, sd, self.m_list, X)
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
        _table_values(self.p, self.sd, self.m_list, X_new, P[:, N:])
        self.w = np.concatenate((self.w, weight_vector(self.p, X_new)))

    def decay(self, t: float) -> np.ndarray:
        """Wbar(m) e^{-E(m) t} over the degree list."""
        return self.wbar * np.exp(-self.energy * t)

    def gram(self) -> np.ndarray:
        """sum_x W(x) P_m(x) P_m'(x) over the points, for every m, m'."""
        return (self.P * self.w) @ self.P.T

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
    if t < 0:
        raise NegativeTime(f"t must be >= 0, got {t}")
    return _SpectralKernel(p, sd, M, np.array(enumerate_lattice(p.n, S), dtype=int)).matrix(t)


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
    kernel = _SpectralKernel(p, sd, M, np.array(enumerate_lattice(p.n, S), dtype=int))
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
    top = slice(-len(compositions(M, p.n)), None)
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
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)

# Trajectories advanced together; bounds the working set (a single 200k batch
# doubled the simulate peak RSS) while keeping the per-step overhead small
_SIM_BATCH = 16_384


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m * x, from 32-bit halves."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x0, x1 = x & _LOW32, x >> np.uint64(32)
    p01 = m0 * x1
    p10 = m1 * x0
    mid = ((m0 * x0) >> np.uint64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = m1 * x1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
    return hi + (mid >> np.uint64(32)), np.uint64(m) * x


def _philox_block(counter: int, seed: int, ids: np.ndarray) -> np.ndarray:
    """Philox4x64-10 at counter (counter, 0, 0, 0) under the keys (seed, i)
    for i in ids, shape (4, len(ids)).

    numpy's Philox raises its counter before each block, so the stream of
    Generator(Philox(key=[seed, i])) is the words of counters 1, 2, ...
    """
    zero = np.zeros(len(ids), dtype=np.uint64)
    c0, c1, c2, c3 = zero + np.uint64(counter), zero, zero, zero
    k0, k1 = zero + np.uint64(seed), ids
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
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
    those of Generator(Philox(key=[seed, i])) driving that loop.
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
            u = _uniforms(_philox_block(k // 2 + 1, seed, ids[rows]))
        u_wait, u_pick = u[2 * (k % 2)], u[2 * (k % 2) + 1]
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
            rows, X, sx, t, u = rows[keep], X[keep], sx[keep], t[keep], u[:, keep]
            per_birth, total, u_pick = per_birth[keep], total[keep], u_pick[keep]
        pick = u_pick * total
        births = n * per_birth
        birth = pick < births
        b = np.flatnonzero(birth)
        j_birth = np.minimum((pick[b] / per_birth[b]).astype(np.int64), n - 1)
        X[b, j_birth] += 1
        # a death removes from the first j whose running sum of x_j/c_j,
        # over the nonzero x_j in order, exceeds the pick (else the last one)
        d = np.flatnonzero(~birth)
        rest = pick[d] - births[d]
        target = np.zeros(len(d), dtype=np.int64)
        open_ = np.ones(len(d), dtype=bool)
        for j in range(n):
            hit = open_ & (X[d, j] != 0)
            target[hit] = j
            rest[hit] -= X[d[hit], j] / c[j]
            open_ &= ~(hit & (rest < 0.0))
        X[d, target] -= 1
        sx += np.where(birth, 1, -1)
    final[rows] = X
    return final, len(rows)


def simulate(
    p: ModelParams,
    x0: MultiIndex,
    t: float,
    seed: int,
    n_traj: int,
) -> SimulationResult:
    """n_traj independent exact-jump trajectories of the chain with rates
    B_j = beta+|x|, D_j = x_j/c_j, each run to time t.

    Trajectory i draws from Philox keyed by (seed, i), so results do not
    depend on execution order or batching; trajectories hitting the event
    cap MAX_EVENTS_PER_TRAJECTORY are counted in cap_hits and contribute
    their state at the cap.  ParameterError unless 0 <= seed < 2**64.
    """
    if t < 0:
        raise NegativeTime(f"t must be >= 0, got {t}")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    counts: Counter = Counter()
    cap_hits = 0
    for start in range(0, n_traj, _SIM_BATCH):
        ids = np.arange(start, min(start + _SIM_BATCH, n_traj), dtype=np.uint64)
        final, capped = _simulate_batch(
            p, x0, t, seed, ids, MAX_EVENTS_PER_TRAJECTORY
        )
        counts.update(map(tuple, final.tolist()))
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


def compare_sim_spectral(
    p: ModelParams,
    sd: SpectralData,
    sim: SimulationResult,
    M: int,
) -> ComparisonReport:
    """Per-state z-scores against the spectral row T(x0, .; t), plus a
    chi-square over the states whose expected count reaches
    POOL_EXPECTED_COUNT (everything below pools into one remainder cell)."""
    # imported here to keep scipy out of the package import
    from scipy import special

    N = sim.n_traj
    S = max(max((sum(s) for s in sim.counts), default=0), sum(sim.x0)) + 5
    probs, lat = _spectral_column(p, sd, sim.x0, sim.t, M, S)

    rows: list[StateRow] = []
    cells: list[tuple[float, int]] = []
    covered_p = 0.0
    covered_n = 0
    max_abs_z = 0.0
    for s, prob in zip(lat, probs):
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
    p_value = float(special.chdtrc(dof, stat))
    return ComparisonReport(
        rows=rows,
        chi2=stat,
        dof=dof,
        p_value=p_value,
        max_abs_z=max_abs_z,
        pooled_rest_expected=rest_p * N,
        sim=sim,
    )


def _spectral_column(
    p: ModelParams,
    sd: SpectralData,
    x0: MultiIndex,
    t: float,
    M: int,
    S: int,
) -> tuple[np.ndarray, list[MultiIndex]]:
    """Distribution T(., x0; t) over {|x| <= S}, growing S by 10 until the
    column sums to 1 within _COLUMN_MASS_TOL or S reaches 120.

    The sum over the whole lattice is exactly 1 for every M (orthogonality
    to P_0), so the mass test closes only the escape from |x| <= S; it is
    blind to the spectral truncation at M.  Each step evaluates only the new
    shells, and the column is the one a kernel built at the final S gives.
    """
    j = _position(x0, p.n, S)
    kernel = _SpectralKernel(p, sd, M, np.array(enumerate_lattice(p.n, S), dtype=int))
    while True:
        col = kernel.column(j, t)
        if abs(1.0 - float(col.sum())) <= _COLUMN_MASS_TOL or S >= 120:
            return col, enumerate_lattice(p.n, S)
        new = [x for s in range(S + 1, S + 11) for x in compositions(s, p.n)]
        kernel.extend(np.array(new, dtype=int))
        S += 10
