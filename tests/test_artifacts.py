"""The benchmark's artifact fingerprints, checked in the test suite.

perfbench/run.py fingerprints the artifacts of each command it times and
compares them with perfbench/reference.json.  These tests run the same
commands on the same inputs through `cli.main` and compare with the same
reference, so a change that moves a byte of `poly_table.csv` or of the
simulated counts fails here first.  Both perfbench files are read, never
written.

The library sweep (`perfbench/sweep.py`) is pinned the same way: four of
its seed-42 parameter sets are run through its own `run_set`, and the route
gap and eigen residual must equal, bit for bit, the values its `sweep.json`
recorded before route 2, route 1's point reader and H-tilde became array
code.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from mvmeixner.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load("run")
SWEEP = _load("sweep")
REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize(
    "workload,step,flags",
    [
        ("desk", "table", ()),
        ("n3", "table", ("--c", RUN.N3_C, "--max-deg", "6", "--S", "40")),
        ("n3", "simulate", ("--c", RUN.N3_C, *RUN.N3_SIM_FLAGS)),
    ],
    ids=["desk-table", "n3-table", "n3-simulate"],
)
def test_fingerprint_matches_reference(tmp_path, capsys, workload, step, flags):
    cfg = RUN.write_config(tmp_path, RUN.DEFAULT_SEED)
    out = tmp_path / "out"
    assert main([step, str(cfg), "--output-dir", str(out), *flags]) == EXIT_OK
    assert RUN.fingerprint(step, out) == REFERENCE[workload][step]


@pytest.mark.parametrize(
    "index,beta,c,route_gap,eigen",
    [
        (8, 2.640546624438395, (0.8896550644625303,), 8.955458673911942e-15, 3.661811414598809e-15),
        (3, 1.5743989583672684, (0.0030375323839636776, 0.7635637872905149),
         7.020886738287842e-14, 2.8795299483684878e-11),
        (0, 0.41034673398242105, (0.37452377976522344, 0.20037994360929828, 0.14418162645736127),
         3.4186968045630006e-13, 1.6665189267162714e-11),
        (1, 3.691728412028795, (0.17328426529521598, 0.00956466830859573, 0.07800824923677965),
         9.909632017428008e-14, 7.524585569584063e-12),
    ],
    ids=["n1", "n2", "n3-a", "n3-b"],
)
def test_sweep_sets_match_recorded(index, beta, c, route_gap, eigen):
    assert next(itertools.islice(SWEEP.parameter_sets(RUN.DEFAULT_SEED), index, None)) == (beta, c)
    got = SWEEP.run_set(beta, c)
    assert (got["route_gap"], got["eigen"], got["ok"]) == (route_gap, eigen, True)
