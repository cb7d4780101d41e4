"""Names other code looks up by string: the package's __all__ and the
functions perfbench/traced.py wraps, and the way perfbench/sweep.py and
traced.py call them.  A rename, a deletion or a reordered parameter would
otherwise surface only when `perfbench/run.py` or `from mvmeixner import *`
runs."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import mvmeixner

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", BENCH / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


TRACED = _load_traced()


def _traced_names() -> list[tuple[str, str]]:
    return [(short, qual) for short, names in TRACED.TRACED.items() for qual in names]


def _resolve(short, qual):
    owner = importlib.import_module(f"mvmeixner.{short}")
    for attr in qual.split("."):
        owner = getattr(owner, attr)
    return owner


def _sweep_calls() -> list[tuple[str, str, ast.Call]]:
    """(module, function, call) for each `module.function(...)` call in
    sweep.py whose function traced.py wraps."""
    traced = {(short, qual) for short, qual in _traced_names()}
    tree = ast.parse((BENCH / "sweep.py").read_text())
    return [
        (node.func.value.id, node.func.attr, node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) in traced
    ]


@pytest.mark.parametrize("short,qual", _traced_names())
def test_traced_name_resolves(short, qual):
    assert callable(_resolve(short, qual))


def test_sweep_calls_bind():
    # each argument the sweep passes by a variable's name lands on the
    # parameter of that name
    calls = _sweep_calls()
    assert {"meixner_eval", "genfun_all", "eigen_check"} <= {name for _, name, _ in calls}
    for short, name, call in calls:
        bound = inspect.signature(_resolve(short, name)).bind(
            *call.args, **{k.arg: k.value for k in call.keywords}
        )
        for param, arg in bound.arguments.items():
            if isinstance(arg, ast.Name) and arg.id.islower():
                assert arg.id == param, (name, param, arg.id)


@pytest.mark.parametrize("name", sorted(TRACED.ATTRS))
def test_traced_attrs_bind(name):
    # traced.py calls ATTRS[name](tracer, result, *args, **kwargs) with the
    # arguments of the function it wraps
    short, _, qual = name.partition(".")
    params = inspect.signature(_resolve(short, qual)).parameters
    inspect.signature(TRACED.ATTRS[name]).bind(None, None, *params)


def test_all_names_resolve():
    missing = [name for name in mvmeixner.__all__ if not hasattr(mvmeixner, name)]
    assert missing == []
