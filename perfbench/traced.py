"""Run one CLI command or the sweep with spans around mvmeixner's public functions.

    python3 -X importtime perfbench/traced.py SPANS RUN_ID cli <mvmeixner args>
    python3 -X importtime perfbench/traced.py SPANS RUN_ID sweep <sweep.py args>

The wrappers live only here: after `import mvmeixner.cli`, every module
namespace that binds a traced function (for example `bdprocess`, which does
`from .polynomials import poly_table`) gets the wrapper in its place.  Spans
are kept in memory as (name, start, end, parent, run id, error, attributes)
and written to SPANS as JSON when the command returns.
"""

import sys
import time

# mvmeixner first, so that -X importtime charges numpy and scipy to it
import mvmeixner.cli

import json
import os

TRACED = {
    "cli": ("main",),
    "spectral": ("solve",),
    "polynomials": ("poly_table", "meixner_eval", "genfun_all", "PolyTable.write_csv"),
    "operators": (
        "operator_algebra_report", "eigen_check", "genfun_identity_richardson",
        "build_H", "build_A",
    ),
    "bdprocess": (
        "transition_matrix", "chapman_kolmogorov_check", "choose_orthogonality_S",
        "orthogonality_check", "moment_check", "simulate", "compare_sim_spectral",
    ),
    "model": ("weight_vector",),
}


def _poly_table_attrs(tracer, result, p, sd, max_deg, S):
    """Cells built, and those rebuilt for a (p, max_deg, S) already built."""
    key = (p.beta, p.c, max_deg, S)
    cells = int(result.values.size)
    reused = cells if key in tracer.tables_built else 0
    tracer.tables_built.add(key)
    return {"cells": cells, "reused_cells": reused}


# Counts recorded at the same boundary as the span: name -> fn(tracer, result, *args)
ATTRS = {
    "polynomials.poly_table": _poly_table_attrs,
    "polynomials.PolyTable.write_csv": lambda tr, res, table, path: {"bytes": os.path.getsize(path)},
    "bdprocess.transition_matrix": lambda tr, res, *a: {"dense_bytes": int(res.nbytes)},
    "bdprocess.simulate": lambda tr, res, *a, **k: {"traj": res.n_traj, "cap_hits": res.cap_hits},
    "model.weight_vector": lambda tr, res, *a: {"points": len(res)},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.tables_built: set = set()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.run_id, error, None]
            if attrs_of is not None:
                spans[idx][6] = attrs_of(self, result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function in every mvmeixner namespace that binds it."""
        wrappers = {}  # id of the original (kept alive by its wrapper) -> wrapper
        for short, names in TRACED.items():
            module = sys.modules[f"mvmeixner.{short}"]
            for qual in names:
                owner, _, attr = qual.rpartition(".")
                owner = getattr(module, owner) if owner else module
                fn = getattr(owner, attr)
                wrappers[id(fn)] = self.wrap(f"{short}.{qual}", fn)
                setattr(owner, attr, wrappers[id(fn)])
        for mod_name, module in list(sys.modules.items()):
            if mod_name.partition(".")[0] != "mvmeixner":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def main() -> int:
    spans_path, run_id, kind, *args = sys.argv[1:]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        if kind == "cli":
            return mvmeixner.cli.main(args)
        import sweep

        return sweep.main(args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
