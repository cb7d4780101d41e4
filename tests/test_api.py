"""Names other code looks up by string: the package's __all__ and the
functions perfbench/traced.py wraps.  A rename or deletion would otherwise
surface only when `perfbench/run.py --trace 1` or `from mvmeixner import *`
runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import mvmeixner

TRACED_PY = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return [(short, qual) for short, names in traced.TRACED.items() for qual in names]


@pytest.mark.parametrize("short,qual", _traced_names())
def test_traced_name_resolves(short, qual):
    owner = importlib.import_module(f"mvmeixner.{short}")
    for attr in qual.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_all_names_resolve():
    missing = [name for name in mvmeixner.__all__ if not hasattr(mvmeixner, name)]
    assert missing == []
