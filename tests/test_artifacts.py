"""The benchmark's artifact fingerprints, checked in the test suite.

perfbench/run.py fingerprints the artifacts of each command it times and
compares them with perfbench/reference.json.  These tests run the same
commands on the same inputs through `cli.main` and compare with the same
reference, so a change that moves a byte of `poly_table.csv` or of the
simulated counts fails here first.  Both perfbench files are read, never
written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from mvmeixner.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


RUN = _load_run()
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
