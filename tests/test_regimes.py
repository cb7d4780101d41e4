"""Regime pins: each row drives a public call into one of the hard regimes
and asserts that it returns finite values or raises a MeixnerError subclass
(the tiny-c row, whose inputs are all valid, admits only
DegenerateParameters, and the tiny-rate verify row requires every check to
pass).  A row that fails today is a strict xfail naming the
ROADMAP item that mends it, so the mend flips it to a pass that must then be
unmarked."""

import math
from pathlib import Path

import pytest
from hypothesis import Phase, Verbosity, assume, example, given, settings, strategies as st

from mvmeixner.bdprocess import orthogonality_check, transition_prob
from mvmeixner.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from mvmeixner.errors import DegenerateParameters, MeixnerError
from mvmeixner.model import DEGENERACY_RTOL, ModelParams
from mvmeixner.polynomials import meixner_eval
from mvmeixner.spectral import solve

CONFIG = Path(__file__).resolve().parent.parent / "config.example.json"

# no shrink or explain phase, and quiet so that no failing-example patch is
# written: a failing row costs what a passing one does
ROW = dict(
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
    verbosity=Verbosity.quiet,
)


def _transition_is_finite(p: ModelParams, x, y, t: float, M: int | None) -> None:
    """solve and transition_prob return finite values or raise a MeixnerError."""
    try:
        rep = transition_prob(p, solve(p), x, y, t, M)
    except MeixnerError:
        return
    assert math.isfinite(rep.spectral_value) and math.isfinite(rep.reduced_value)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@settings(max_examples=25, **ROW)
@given(
    n=st.sampled_from((2, 3)),
    log_gap=st.floats(math.log10(DEGENERACY_RTOL) + 0.5, -1.0),
    base=st.floats(0.05, 0.3),
    other=st.floats(0.01, 0.3),
    beta=st.floats(0.3, 5.0),
    first=st.integers(0, 2),
)
def test_coincident_c_solve(n, log_gap, base, other, beta, first):
    # two rates a relative gap apart, at least 0.5 decades above
    # DEGENERACY_RTOL, so the pair is not flagged as coincident
    pair = [base, base * (1.0 + 10.0**log_gap)]
    c = pair if n == 2 else pair[:first] + [other] + pair[first:]
    try:
        sd = solve(ModelParams(beta, c))
    except MeixnerError:
        return
    values = [*sd.lam, *sd.cbar, *(v for row in sd.u for v in row)]
    assert all(math.isfinite(v) for v in values)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_spectrum_cli_close_rates(tmp_path, capsys):
    code = main(["spectrum", str(CONFIG), "--c", "0.45,0.49", "--output-dir", str(tmp_path)])
    assert code in (EXIT_OK, EXIT_DEGENERATE, EXIT_VERIFY_FAILED)
    assert "Traceback" not in capsys.readouterr().err


# the adaptive cutoff stops at M = 170, the last degree whose factorial
# (in wbar and the route-1 coefficient lists) is a double; the example,
# which would need M = 184, raises TailTooLarge
@settings(max_examples=15, **ROW)
@example(beta=1.5, c=0.5, x=1, y=0, t=0.125)
@given(
    beta=st.floats(0.3, 5.0),
    c=st.floats(0.05, 0.9),
    x=st.integers(0, 5),
    y=st.integers(0, 5),
    t=st.floats(1e-3, 0.125),
)
def test_short_t_transition(beta, c, x, y, t):
    _transition_is_finite(ModelParams(beta, (c,)), (x,), (y,), t, None)


# the rates D_j = x_j/c_j reach 1e4 here: factorization is read relative to
# max|H| and genfun_identity against the exact t-derivative
def test_verify_cli_tiny_rate(tmp_path):
    code = main(["verify", str(CONFIG), "--c", "0.001,0.3", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK


@settings(max_examples=15, **ROW)
@given(beta=st.floats(0.3, 5.0), c=st.floats(0.9, 0.995), max_deg=st.integers(1, 3))
def test_c_mass_near_one_orthogonality(beta, c, max_deg):
    p = ModelParams(beta, (c,))
    sd = solve(p)
    try:
        rep = orthogonality_check(p, sd, max_deg)
    except MeixnerError:
        return
    assert math.isfinite(rep.max_offdiag) and math.isfinite(rep.max_diag)


# c as perfbench/sweep.py draws it: |c| uniform on [0.2, 0.9], split by a
# flat Dirichlet (normalised exponentials -log u)
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@settings(max_examples=30, **ROW)
@given(
    n=st.sampled_from((3, 4)),
    log_beta=st.floats(math.log(0.3), math.log(5.0)),
    mass=st.floats(0.2, 0.9),
    u=st.lists(st.floats(1e-12, 1.0, exclude_max=True), min_size=4, max_size=4),
)
def test_many_rates_transition(n, log_beta, mass, u):
    parts = [-math.log(v) for v in u[:n]]
    c = [mass * v / math.fsum(parts) for v in parts]
    x, y = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)
    _transition_is_finite(ModelParams(math.exp(log_beta), c), x, y, 0.5, 3)


# c=(0.6, 1e-4) misses the absolute secular gate (residual 1.06e-12 against
# 1e-12), and some draws divide by zero one step off a pole
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@settings(max_examples=30, **ROW)
@example(log_tiny=-4.0, others=[0.6], at=1, beta=1.0)
@given(
    log_tiny=st.floats(-6.0, -2.0),
    others=st.lists(st.floats(0.2, 0.8), min_size=1, max_size=2),
    at=st.integers(0, 2),
    beta=st.floats(0.3, 5.0),
)
def test_tiny_c_solve(log_tiny, others, at, beta):
    c = others[:at] + [10.0**log_tiny] + others[at:]
    assume(math.fsum(c) < 1.0)
    try:
        sd = solve(ModelParams(beta, c))
    except DegenerateParameters:
        return
    values = [*sd.lam, *sd.cbar, *(v for row in sd.u for v in row)]
    assert all(math.isfinite(v) for v in values)


def _split(total: int, cuts: list[int]) -> tuple[int, ...]:
    """total as len(cuts) + 1 nonnegative parts, cut at the sorted cuts."""
    edges = [0, *sorted(min(k, total) for k in cuts), total]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


# Route 1 stays finite on every drawn point at |m| <= 24, |x| <= 800; the
# example fails in solve, with a bare ZeroDivisionError one step off a pole
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@settings(max_examples=25, **ROW)
@example(
    n=3,
    beta=1.8459848082439454,
    c=[0.0725066307327659, 0.10281856696838097, 0.1099989129092518],
    deg=1, m_cuts=[1, 1], size=180, x_cuts=[82, 127],
)
@given(
    n=st.integers(1, 3),
    beta=st.floats(0.3, 5.0),
    c=st.lists(st.floats(0.02, 0.33), min_size=3, max_size=3),
    deg=st.integers(0, 24),
    m_cuts=st.lists(st.integers(0, 24), min_size=2, max_size=2),
    size=st.integers(0, 800),
    x_cuts=st.lists(st.integers(0, 800), min_size=2, max_size=2),
)
def test_high_degree_eval(n, beta, c, deg, m_cuts, size, x_cuts):
    m, x = _split(deg, m_cuts[: n - 1]), _split(size, x_cuts[: n - 1])
    try:
        p = ModelParams(beta, c[:n])
        value = meixner_eval(p, solve(p), m, x)
    except MeixnerError:
        return
    assert math.isfinite(value)


# At n=1, P_m(x) = 2F1(-m, -x; beta; 1 - 1/c) (Koekoek, Lesky & Swarttouw
# 2010, 9.10).  Here route 1's alternating terms cancel past every digit:
# it returns -1.69e17 with no error for 3.87e17, which the finiteness row
# above cannot see.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
def test_high_degree_eval_accuracy():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        want = float(mpmath.hyp2f1(-44, -87, 1.5, -1))
    p = ModelParams(1.5, (0.5,))
    try:
        got = meixner_eval(p, solve(p), (44,), (87,))
    except MeixnerError:
        return
    assert abs(got - want) <= 1e-8 * abs(want)
