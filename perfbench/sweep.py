"""Library sweep over seeded random parameter sets (the `sweep` workload).

For each set it runs `solve(p, cross_check=True)`, compares route 1
(`meixner_eval`) with route 2 (`genfun_all`) on every (m, x) with |m| <= 4,
|x| <= 6, and runs `eigen_check` for |m| <= 3 on |x| <= 10.  Sets are drawn
from the seeded stream until PAIR_BUDGET (m, x) pairs have been compared,
about 60 sets, so a pass does the same work whichever sets fail.  Every
exception is caught and recorded by type: the sweep measures failures, it
does not avoid them.  Each set is new to the process, so caches start cold.

    python3 perfbench/sweep.py --seed 42 --out DIR

writes DIR/sweep.json (deterministic for a seed: no timings in it) and prints
one JSON line with the loop's wall time.  `traced.py` runs the same `main`.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path
from typing import Iterator

from mvmeixner import model, operators, polynomials, spectral

PAIR_BUDGET = 60_000
MAX_SETS = 240  # ends the pass even if every set fails
GENFUN_DEG = 4
GENFUN_RADIUS = 6
EIGEN_DEG = 3
EIGEN_RADIUS = 10
ROUTE_TOL = 1e-9
EIGEN_TOL = 1e-8


def parameter_sets(seed: int) -> Iterator[tuple[float, tuple[float, ...]]]:
    """(beta, c) draws: n in {1, 2, 3}, beta log-uniform on [0.3, 5],
    |c| uniform on [0.2, 0.9] split by a flat Dirichlet (distinct almost surely)."""
    rng = random.Random(seed)
    while True:
        n = rng.choice((1, 2, 3))
        beta = math.exp(rng.uniform(math.log(0.3), math.log(5.0)))
        mass = rng.uniform(0.2, 0.9)
        parts = [rng.expovariate(1.0) for _ in range(n)]
        total = sum(parts)
        yield beta, tuple(mass * v / total for v in parts)


def run_set(beta: float, c: tuple[float, ...]) -> dict:
    """All checks for one parameter set; raises whatever the library raises."""
    p = model.ModelParams(beta, c)
    sd = spectral.solve(p, cross_check=True)
    pairs = 0
    route_gap = 0.0
    m_list = model.compositions_upto(GENFUN_DEG, p.n)
    for x in model.enumerate_lattice(p.n, GENFUN_RADIUS):
        via_genfun = polynomials.genfun_all(p, sd, x, GENFUN_DEG)
        for m in m_list:
            r1 = polynomials.meixner_eval(p, sd, m, x)
            r2 = via_genfun[m]
            route_gap = max(route_gap, abs(r1 - r2) / (1.0 + abs(r1)))
            pairs += 1
    sample = model.enumerate_lattice(p.n, EIGEN_RADIUS)
    eigen = max(
        operators.eigen_check(p, sd, m, sample)
        for m in model.compositions_upto(EIGEN_DEG, p.n)
    )
    return {
        "pairs": pairs,
        "route_gap": route_gap,
        "eigen": eigen,
        "ok": route_gap <= ROUTE_TOL and eigen <= EIGEN_TOL,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    results = []
    pairs = 0
    start = time.perf_counter()
    for beta, c in parameter_sets(args.seed):
        entry = {"beta": beta, "c": list(c)}
        try:
            entry.update(run_set(beta, c))
        except Exception as e:  # the sweep records every failure by type
            entry["error"] = type(e).__name__
            entry["message"] = str(e)
        results.append(entry)
        pairs += entry.get("pairs", 0)
        if pairs >= PAIR_BUDGET or len(results) >= MAX_SETS:
            break
    loop_s = time.perf_counter() - start

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_text(
        json.dumps({"seed": args.seed, "sets": results}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({"loop_s": loop_s, "pairs": pairs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
