"""Regime pins: each row drives a public call into one of the hard regimes
and asserts that it returns finite values or raises a MeixnerError subclass.
A row that fails today is a strict xfail naming the ROADMAP item that mends
it, so the mend flips it to a pass that must then be unmarked."""

import math
from pathlib import Path

import pytest
from hypothesis import Phase, Verbosity, example, given, settings, strategies as st

from mvmeixner.bdprocess import choose_orthogonality_S, orthogonality_check, transition_prob
from mvmeixner.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ORTH_TAIL_TARGET,
    main,
)
from mvmeixner.errors import MeixnerError
from mvmeixner.model import DEGENERACY_RTOL, ModelParams
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


# math.factorial(m), in wbar and in the route-1 coefficient lists, overflows
# a float once the adaptive cutoff passes m = 170; the example picks M = 184
@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
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


@settings(max_examples=15, **ROW)
@given(beta=st.floats(0.3, 5.0), c=st.floats(0.9, 0.995), max_deg=st.integers(1, 3))
def test_c_mass_near_one_orthogonality(beta, c, max_deg):
    p = ModelParams(beta, (c,))
    sd = solve(p)
    try:
        S = choose_orthogonality_S(p, sd, max_deg, ORTH_TAIL_TARGET)
        rep = orthogonality_check(p, sd, max_deg, S, ORTH_TAIL_TARGET)
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
