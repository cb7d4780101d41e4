"""mvmeixner benchmark: each workload is a closed loop, one child process at a time.

    python3 perfbench/run.py --workload desk --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload desk --seed 42 --seconds 15 --trace 1
    python3 perfbench/run.py --record-reference

Run from the repository root; the package is imported from ./src.  With
--trace 0 the workload runs untraced and the end-to-end metrics are printed;
with --trace 1 untraced and traced iterations alternate, the per-layer
metrics come from the traced ones (see traced.py) and the artifacts of each
pair must be byte-identical.  The last line of standard output is one JSON
object; everything else about the run goes to .perfbench_out/.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("desk", "sim", "n3", "sweep")
DEFAULT_SEED = 42
SETUP_REPS = 3
RUN_DEADLINE_S = 170.0
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# config.example.json as of the commit that defined this benchmark, embedded so
# that the inputs stay fixed; the workload seed goes into sim.seed.
BASE_CONFIG = {
    "beta": 1.5,
    "c": [0.2, 0.3],
    "limits": {"S": 30, "max_deg": 3, "M": 15, "D": 8},
    "tolerances": {"eps_orth": 1e-6, "eps_eigen": 1e-8, "eps_ck": 1e-5},
    "sim": {"seed": DEFAULT_SEED, "n_traj": 200_000, "t": 1.0},
}
N3_C = "0.1,0.15,0.2"
# n3's simulate keeps the default seed: its peak memory follows the largest
# simulated state (the dense N x N kernel behind compare_sim_spectral), which
# ranges over 444-954 MB between seeds, so a varying seed would measure the seed.
N3_SIM_FLAGS = ("--n-traj", "20000", "--M", "8", "--seed", str(DEFAULT_SEED))

# Every end-to-end metric the run prints (where it applies), in order, with units.
E2E_UNITS = {
    "setup_s": "s",
    "spectrum_s": "s",
    "table_s": "s",
    "verify_s": "s",
    "simulate_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "sweep_pairs_per_s": "1/s",
    "fail_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, reference or spec)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=src if not path else src + os.pathsep + path,
        MVMEIXNER_LOG="WARNING",
    )


def run_child(argv: list[str], log_stem: Path, deadline: float, commands: list) -> dict:
    """Run `python3 *argv` from the root and wait for it with wait4.

    Returns wall time (spawn to reap), peak RSS and exit code (None on a
    timeout, after the child is killed and reaped)."""
    cmd = [sys.executable, *argv]
    commands.append(cmd)
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode if ready else None,
        "stdout": Path(f"{log_stem}.out").read_text(),
        "stderr_path": f"{log_stem}.err",
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def cli(sub: str, cfg: str, out: str, *flags: str) -> list[str]:
    return ["-m", "mvmeixner.cli", sub, cfg, "--output-dir", out, *flags]


def workload_steps(workload: str, seed: int, cfg: str, out: str) -> list[tuple[str, list[str]]]:
    """(step name, python argv) for one iteration of the workload."""
    if workload == "desk":
        return [(s, cli(s, cfg, out)) for s in ("spectrum", "table", "verify")]
    if workload == "sim":
        return [("simulate", cli("simulate", cfg, out))]
    if workload == "n3":
        return [
            ("verify", cli("verify", cfg, out, "--c", N3_C)),
            ("table", cli("table", cfg, out, "--c", N3_C, "--max-deg", "6", "--S", "40")),
            ("simulate", cli("simulate", cfg, out, "--c", N3_C, *N3_SIM_FLAGS)),
        ]
    return [("sweep", [str(BENCH_DIR / "sweep.py"), "--seed", str(seed), "--out", out])]


def traced_argv(argv: list[str], spans: str, run_id: str) -> list[str]:
    head = ["-X", "importtime", str(BENCH_DIR / "traced.py"), spans, run_id]
    if argv[:2] == ["-m", "mvmeixner.cli"]:
        return head + ["cli"] + argv[2:]
    return head + ["sweep"] + argv[1:]


def run_iteration(
    workload: str, seed: int, cfg: Path, out: Path, deadline: float,
    commands: list, tag: str, traced: bool = False,
) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    logs = out.parent / "logs"
    logs.mkdir(exist_ok=True)
    steps = []
    start = time.perf_counter()
    for name, argv in workload_steps(workload, seed, str(cfg.relative_to(ROOT)), str(out.relative_to(ROOT))):
        spans = str(logs / f"{tag}-{name}.spans.json")
        if traced:
            argv = traced_argv(argv, spans, f"{tag}-{name}")
        res = run_child(argv, logs / f"{tag}-{name}", deadline, commands)
        res["name"] = name
        if traced:
            res["spans"] = spans
        steps.append(res)
        if res["exit"] is None:
            break
    return {"wall_s": time.perf_counter() - start, "steps": steps, "out": out}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(step: str, out: Path) -> dict:
    """The parts of a command's artifact that must not change."""
    if step == "spectrum":
        return {"n_lambda": len(json.loads((out / "spectrum.json").read_text())["lambda"])}
    if step == "table":
        return {"poly_table_sha256": sha256(out / "poly_table.csv")}
    if step == "verify":
        report = json.loads((out / "verify_report.json").read_text())
        return {
            "checks": {k: v["tolerance"] for k, v in report["checks"].items()},
            "all_pass": report["all_pass"],
        }
    if step == "simulate":
        lines = (out / "sim_vs_spectral.csv").read_text().splitlines()
        rows = [ln.split(",")[:2] for ln in lines[1:] if not ln.startswith("#")]
        kept = [f"{state},{count}" for state, count in rows if count != "0"]
        tokens = re.findall(r"\b(seed|generator|n_traj|cap_hits)=(\S+)", lines[-1])
        kept += [f"{k}={v}" for k, v in tokens]
        return {"counts_sha256": hashlib.sha256("\n".join(kept).encode()).hexdigest()}
    raise ValueError(step)


def check_iteration(workload: str, seed: int, it: dict, reference: dict, tally: dict) -> None:
    """Count the iteration's operations and record every failure in `tally`."""
    for step in it["steps"]:
        name = step["name"]
        if step["exit"] is None:
            fail(tally, f"{name}: timeout", "timeout", wrong=True)
            continue
        if name == "sweep":
            check_sweep(step, it["out"], tally)
            continue
        tally["attempted"] += 1
        if step["exit"] != 0:
            fail(tally, f"{name}: exit code {step['exit']}", f"exit{step['exit']}", wrong=True)
            continue
        expected = dict(reference[workload][name])
        if seed != DEFAULT_SEED and (workload, name) != ("n3", "simulate"):
            # other seeds: only the CLI's statistical gate (the exit code) applies
            expected.pop("counts_sha256", None)
        try:
            got = fingerprint(name, it["out"])
        except (OSError, ValueError, KeyError, IndexError) as e:
            fail(tally, f"{name}: unreadable artifact: {e!r}", "mismatch", wrong=True)
            continue
        diff = {k: got.get(k) for k, v in expected.items() if got.get(k) != v}
        if diff:
            fail(tally, f"{name}: artifact differs from reference: {diff}", "mismatch", wrong=True)


def check_sweep(step: dict, out: Path, tally: dict) -> None:
    if step["exit"] != 0:
        tally["attempted"] += 1
        fail(tally, f"sweep: exit code {step['exit']}", f"exit{step['exit']}", wrong=True)
        return
    try:
        sets = json.loads((out / "sweep.json").read_text())["sets"]
        timing = json.loads(step["stdout"].splitlines()[-1])
    except (OSError, ValueError, KeyError, IndexError) as e:
        tally["attempted"] += 1
        fail(tally, f"sweep: unreadable output: {e!r}", "mismatch", wrong=True)
        return
    for entry in sets:
        tally["attempted"] += 1
        if "error" in entry:
            # a raising library call is a failed operation, not a wrong answer
            fail(tally, None, entry["error"], wrong=False)
        elif not entry["ok"]:
            fail(tally, f"sweep: check failed for beta={entry['beta']} c={entry['c']}", "check", wrong=True)
    step["pairs"] = timing["pairs"]
    step["pairs_per_s"] = timing["pairs"] / timing["loop_s"]


def fail(tally: dict, message: str | None, kind: str, wrong: bool) -> None:
    tally["failed"] += 1
    tally["by_type"][kind] += 1
    if wrong:
        tally["correct"] = False
    if message:
        print(f"FAIL {message}", file=sys.stderr)


def artifacts_identical(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


# ---------------------------------------------------------------------------
# per-layer metrics from spans and -X importtime
# ---------------------------------------------------------------------------

IMPORT_METRICS = {
    "import.total_s": "mvmeixner.cli",
    "import.mvmeixner.bdprocess_s": "mvmeixner.bdprocess",
    "import.mvmeixner.operators_s": "mvmeixner.operators",
}


def import_times(stderr_path: str) -> dict:
    cumulative = {}
    for line in Path(stderr_path).read_text().splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_METRICS.items()}


def span_totals(span_files: list[str]) -> tuple[dict, dict, dict, dict]:
    """calls, self seconds, attribute sums and errors by type, per span name."""
    calls, self_s, attrs = Counter(), Counter(), {}
    errors: dict[str, Counter] = {}
    for path in span_files:
        spans = json.loads(Path(path).read_text())["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _run, _err, _attrs in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, _run, err, extra) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if err is not None:
                errors.setdefault(name, Counter())[err] += 1
            for key, value in (extra or {}).items():
                attrs.setdefault(name, Counter())[key] += value
    return calls, self_s, attrs, errors


def layer_metrics(it: dict) -> dict:
    """Every per-layer number of one traced iteration."""
    calls, self_s, attrs, errors = span_totals([s["spans"] for s in it["steps"]])
    out = {}
    for name in set(calls) | set(self_s):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = self_s[name]
    for name, sums in attrs.items():
        for key, value in sums.items():
            out[f"{name}.{key}"] = value
    for name, by_type in errors.items():
        out[f"{name}.errors"] = sum(by_type.values())
        for kind, count in by_type.items():
            out[f"{name}.errors.{kind}"] = count
    tables = attrs.get("polynomials.poly_table", Counter())
    out["polynomials.poly_table.reuse_frac"] = (
        tables["reused_cells"] / tables["cells"] if tables["cells"] else 0.0
    )
    sim_s = self_s["bdprocess.simulate"]
    out["bdprocess.simulate.traj_per_s"] = (
        attrs["bdprocess.simulate"]["traj"] / sim_s if sim_s else 0.0
    )
    out["cli.main.self_s"] = out.pop("cli.main.s", 0.0)
    imports = [import_times(s["stderr_path"]) for s in it["steps"]]
    for metric in IMPORT_METRICS:
        out[metric] = statistics.median(i[metric] for i in imports)
    return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace) -> dict:
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "platform": platform.platform(),
        "harness_argv": [sys.executable, *sys.argv],
    }


def require_program() -> None:
    if not (ROOT / "src" / "mvmeixner" / "cli.py").is_file():
        raise BenchError(f"no src/mvmeixner under {ROOT}: run from the repository root")


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except OSError as e:
        raise BenchError(f"missing benchmark file: {e}")


def write_config(run_dir: Path, seed: int) -> Path:
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["sim"]["seed"] = seed
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def measure_setup(run_dir: Path, deadline: float, commands: list) -> list[dict]:
    """Cold interpreter start plus `import mvmeixner.cli`, SETUP_REPS times."""
    runs = []
    for rep in range(SETUP_REPS):
        res = run_child(["-c", "import mvmeixner.cli"], run_dir / f"setup-{rep}", deadline, commands)
        if res["exit"] != 0:
            raise BenchError(f"`import mvmeixner.cli` failed (exit {res['exit']})")
        runs.append(res)
    return runs


def e2e_metrics(iterations: list[dict], setup: list[dict], tally: dict) -> dict:
    per_step: dict[str, list[float]] = {}
    rss = [s["rss_mb"] for s in setup]
    pairs_per_s = []
    for it in iterations:
        for step in it["steps"]:
            per_step.setdefault(step["name"], []).append(step["wall_s"])
            rss.append(step["rss_mb"])
            if "pairs_per_s" in step:
                pairs_per_s.append(step["pairs_per_s"])
    out = {"setup_s": statistics.median(s["wall_s"] for s in setup)} if setup else {}
    for name in ("spectrum", "table", "verify", "simulate"):
        if name in per_step:
            out[f"{name}_s"] = statistics.median(per_step[name])
    out["wall_s"] = statistics.median(it["wall_s"] for it in iterations)
    out["peak_rss_mb"] = max(rss)
    if pairs_per_s:
        out["sweep_pairs_per_s"] = statistics.median(pairs_per_s)
    out["fail_frac"] = tally["failed"] / tally["attempted"]
    return out


def run(args: argparse.Namespace) -> int:
    require_program()
    spec, reference = load_json(SPEC), load_json(REFERENCE)
    begin = time.monotonic()
    deadline = begin + RUN_DEADLINE_S
    run_dir = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = write_config(run_dir, args.seed)
    commands: list = []
    tally = {"attempted": 0, "failed": 0, "correct": True, "by_type": Counter()}

    setup = [] if args.trace else measure_setup(run_dir, deadline, commands)
    plain, traced, layers = [], [], []
    loop_start = time.monotonic()
    while True:
        started = time.monotonic()
        tag = f"it{len(plain)}"
        it = run_iteration(args.workload, args.seed, cfg, run_dir / "plain", deadline, commands, tag)
        check_iteration(args.workload, args.seed, it, reference, tally)
        plain.append(it)
        if args.trace:
            tr = run_iteration(
                args.workload, args.seed, cfg, run_dir / "traced", deadline, commands, f"{tag}-traced", traced=True
            )
            check_iteration(args.workload, args.seed, tr, reference, tally)
            traced.append(tr)
            if all(s["exit"] == 0 for s in tr["steps"]):
                layers.append(layer_metrics(tr))
            if not artifacts_identical(it["out"], tr["out"]):
                fail(tally, "traced artifacts differ from untraced ones", "trace_mismatch", wrong=True)
        now = time.monotonic()
        if now - loop_start >= args.seconds or now + (now - started) > deadline:
            break

    metrics = e2e_metrics(plain, setup, tally)
    if args.trace:
        metrics["trace.overhead_s"] = (
            statistics.median(t["wall_s"] for t in traced) - metrics["wall_s"]
        )
        names = sorted({k for lm in layers for k in lm})
        for k in names:
            metrics[k] = statistics.median(lm.get(k, 0) for lm in layers)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    report_lines(args, metrics, tally, len(plain))
    final = {
        "correct": tally["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }
    result = {
        "environment": environment(args),
        "commands": commands,
        "failures_by_type": dict(tally["by_type"]),
        "metrics": metrics,
        "iterations": [
            {"wall_s": it["wall_s"], "steps": [{k: v for k, v in s.items() if k != "stdout"} for s in it["steps"]]}
            for it in plain + traced
        ],
        "layers_per_traced_iteration": layers,
        "result": final,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps(final))
    return 0


def report_lines(args: argparse.Namespace, metrics: dict, tally: dict, iterations: int) -> None:
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} iterations={iterations}")
    for name, unit in E2E_UNITS.items():
        if name in metrics:
            print(f"  {name:24s} {metrics[name]:.6g} {unit}")
    print(f"  attempted={tally['attempted']} failed={tally['failed']} by type: {dict(tally['by_type'])}")
    if args.trace:
        for name in sorted(k for k in metrics if k not in E2E_UNITS):
            print(f"  {name:48s} {metrics[name]:.6g}")


def record_reference() -> int:
    """Write reference.json from one default-seed iteration of each CLI workload."""
    require_program()
    reference = {}
    for workload in ("desk", "sim", "n3"):
        run_dir = WORK_ROOT / f"reference-{workload}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        cfg = write_config(run_dir, DEFAULT_SEED)
        it = run_iteration(workload, DEFAULT_SEED, cfg, run_dir / "plain", time.monotonic() + 600, [], "ref")
        reference[workload] = {}
        for step in it["steps"]:
            if step["exit"] != 0:
                raise BenchError(f"{workload}/{step['name']} exited {step['exit']}")
            reference[workload][step["name"]] = fingerprint(step["name"], it["out"])
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so a running child is killed and reaped
    ap = argparse.ArgumentParser(description="mvmeixner benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    try:
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            ap.error("--workload is required")
        return run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
