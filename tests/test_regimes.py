"""Regime pins: each row drives a public call into one of the hard regimes
and asserts that it returns finite values or raises a MeixnerError subclass.
A row that fails today is a strict xfail naming the ROADMAP item that mends
it, so the mend flips it to a pass that must then be unmarked."""

import math
from pathlib import Path

import pytest
from hypothesis import Phase, Verbosity, given, settings, strategies as st

from mvmeixner.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_VERIFY_FAILED, main
from mvmeixner.errors import MeixnerError
from mvmeixner.model import DEGENERACY_RTOL, ModelParams
from mvmeixner.spectral import solve

CONFIG = Path(__file__).resolve().parent.parent / "config.example.json"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
# no shrink or explain phase, and quiet so that no failing-example patch is
# written: a failing row costs what a passing one does
@settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    phases=(Phase.generate,),
    verbosity=Verbosity.quiet,
)
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
