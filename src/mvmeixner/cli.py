"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Subcommands: spectrum | table | verify | simulate.  Exit codes: 0 success,
1 invalid input, 2 degenerate-parameters diagnostic, 3 verification failure.
Every run is deterministic given its config (simulation included, via the
recorded seed).  The MVMEIXNER_LOG environment variable sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import bdprocess, operators, polynomials, spectral
from ._atomic import replacing
from .errors import ConfigError, MeixnerError, ParameterError, TailTooLarge
from .model import ModelParams, enumerate_lattice

log = logging.getLogger("mvmeixner")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DEGENERATE = 2
EXIT_VERIFY_FAILED = 3

# Check tolerances not exposed through the config file.
CONSTRAINT_TOL = 1e-10
MOMENT_TOL = 1e-8
FACTORIZATION_TOL = 1e-12
H_ZERO_MODE_TOL = 1e-10
SPECTRUM_FLOOR = 1e-8
GENFUN_TOL = 1e-7
CHI2_P_THRESHOLD = 1e-3
Z_LIMIT = 4.0
CK_TIME = 0.3

DEGENERATE_DIAGNOSTIC = (
    "coincident c values: the hypergeometric construction requires all "
    "parameters c_j to be distinct; only the spectrum with multiplicities "
    "is reported"
)


@dataclass(frozen=True)
class RunConfig:
    beta: float
    c: tuple[float, ...]
    S: int = 30
    max_deg: int = 3
    M: int = 15
    D: int = 8
    eps_orth: float = 1e-6
    eps_eigen: float = 1e-8
    eps_ck: float = 1e-5
    seed: int = 42
    n_traj: int = 200_000
    t: float = 1.0
    output_dir: str = "out"

    def params(self) -> ModelParams:
        return ModelParams(self.beta, self.c)

    def validate(self) -> "RunConfig":
        for name in ("S", "max_deg", "M", "D", "n_traj", "seed"):
            v = getattr(self, name)
            field = f"{'sim' if name in _SIM_KEYS else 'limits'}.{name}"
            # bool is an int subclass: JSON true would run as 1
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{field} must be an integer, got {v!r}")
            if v <= 0 and name != "seed":
                raise ConfigError(f"{field} must be positive, got {v}")
        for name in ("eps_orth", "eps_eigen", "eps_ck"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"tolerances.{name} must lie in (0, 1), got {v}")
        if not 0 <= self.t < math.inf:
            raise ConfigError(f"sim.t must be finite and >= 0, got {self.t}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"sim.seed must lie in [0, 2**64), got {self.seed}")
        return self


_LIMIT_KEYS = {"S", "max_deg", "M", "D"}
_TOL_KEYS = {"eps_orth", "eps_eigen", "eps_ck"}
_SIM_KEYS = {"seed", "n_traj", "t"}


def load_config(path: str | Path) -> RunConfig:
    """Parse the run config, reporting the offending line/field on failure."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    known_top = {"beta", "c", "limits", "tolerances", "sim", "output_dir"}
    for key in raw:
        if key not in known_top:
            raise ConfigError(f"{path}: unknown field '{key}'")
    for field_name in ("beta", "c"):
        if field_name not in raw:
            raise ConfigError(f"{path}: missing required field '{field_name}'")

    fields: dict = {"beta": raw["beta"], "c": tuple(raw["c"])}

    def take(section: str, allowed: set[str]) -> None:
        block = raw.get(section, {})
        if not isinstance(block, dict):
            raise ConfigError(f"{path}: '{section}' must be an object")
        for key, value in block.items():
            if key not in allowed:
                raise ConfigError(f"{path}: unknown field '{section}.{key}'")
            fields[key] = value

    take("limits", _LIMIT_KEYS)
    take("tolerances", _TOL_KEYS)
    take("sim", _SIM_KEYS)
    if "output_dir" in raw:
        fields["output_dir"] = raw["output_dir"]
    try:
        return RunConfig(**fields).validate()
    except TypeError as e:
        raise ConfigError(f"{path}: {e}")


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    for name in (
        "beta", "S", "max_deg", "M", "D", "eps_orth", "eps_eigen", "eps_ck",
        "seed", "n_traj", "t", "output_dir",
    ):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if getattr(args, "c", None) is not None:
        try:
            updates["c"] = tuple(float(v) for v in args.c.split(","))
        except ValueError:
            raise ConfigError(f"--c expects a comma-separated list of reals, got '{args.c}'")
    return replace(cfg, **updates).validate() if updates else cfg


def _out_path(cfg: RunConfig, name: str) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"output_dir '{cfg.output_dir}' is not writable: {e}")
    return out / name


def _write_json(path: Path, payload: dict) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    p = cfg.params()
    if p.degenerate:
        lam, mult = spectral.degenerate_spectrum(p)
        _write_json(
            _out_path(cfg, "spectrum.json"),
            {
                "lambda": list(lam),
                "multiplicities": list(mult),
                "degenerate": True,
                "diagnostic": DEGENERATE_DIAGNOSTIC,
            },
        )
        print(f"degenerate parameters: {DEGENERATE_DIAGNOSTIC}", file=sys.stderr)
        return EXIT_DEGENERATE
    sd = spectral.solve(p)
    _write_json(_out_path(cfg, "spectrum.json"), sd.to_dict())
    worst = _worst([v for k, v in sd.residuals.items() if k != "cbar_mass"])
    if not worst <= CONSTRAINT_TOL:
        print(f"constraint residual {worst:.3e} above {CONSTRAINT_TOL:.0e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_table(cfg: RunConfig) -> int:
    p = cfg.params()
    if p.degenerate:
        print(f"degenerate parameters: {DEGENERATE_DIAGNOSTIC}", file=sys.stderr)
        return EXIT_DEGENERATE
    sd = spectral.solve(p)
    table = polynomials.poly_table(p, sd, cfg.max_deg, cfg.S)
    table.write_csv(_out_path(cfg, "poly_table.csv"))
    log.info("wrote %s", _out_path(cfg, "poly_table.csv"))
    return EXIT_OK


def _worst(residuals: list[float]) -> float:
    """The largest residual, NaN if any is NaN; max() keeps a NaN only when
    it comes first, so a NaN residual could pass its check."""
    return float(np.max(residuals))


def _verify_checks(cfg: RunConfig) -> dict[str, dict]:
    """Every identity check, as {name: {residual, tolerance, pass}}."""
    p = cfg.params()
    sd = spectral.solve(p)
    checks: dict[str, dict] = {}

    def record(name: str, residual: float, tolerance: float) -> None:
        checks[name] = {
            "residual": residual,
            "tolerance": tolerance,
            "pass": bool(residual <= tolerance),
        }

    record(
        "constraints",
        _worst([v for k, v in sd.residuals.items() if k != "cbar_mass"]),
        CONSTRAINT_TOL,
    )

    orth = bdprocess.orthogonality_check(p, sd, cfg.max_deg)
    record("orthogonality_offdiag", orth.max_offdiag, cfg.eps_orth)
    record("orthogonality_diag", orth.max_diag, cfg.eps_orth)

    moments = bdprocess.moment_check(p)
    record("moments", _worst([moments["mean"], moments["second"]]), MOMENT_TOL)

    sample = enumerate_lattice(p.n, 10)
    eigen_worst = _worst([
        operators.eigen_check(p, sd, m, sample)
        for m in polynomials.compositions_upto(min(cfg.max_deg, 3), p.n)
    ])
    record("eigen", eigen_worst, cfg.eps_eigen)

    S_op = min(cfg.S, 10)
    algebra = operators.operator_algebra_report(p, S_op)
    record("h_symmetry", algebra["symmetry_defect"], 0.0)
    record("factorization", algebra["factorization"], FACTORIZATION_TOL)
    record("h_zero_mode", algebra["H_sqrtW"], H_ZERO_MODE_TOL)
    record(
        "h_spectrum_floor",
        # 0.0 last: of two equal values np.max keeps the later, so -0.0 reads 0.0
        _worst([-algebra["interior_eigenvalue_floor"], 0.0]),
        SPECTRUM_FLOOR,
    )

    rng = np.random.default_rng(cfg.seed)
    shells = enumerate_lattice(p.n, 6)
    genfun_residuals = []
    for _ in range(20):
        x = shells[rng.integers(len(shells))]
        t = rng.uniform(-0.08, 0.08, size=p.n)
        res = operators.genfun_identity_richardson(p, sd, x, t)
        genfun_residuals.append(res["residual"])
    record("genfun_identity", _worst(genfun_residuals), GENFUN_TOL)

    if p.n == 1:
        S_ck, M_ck = min(cfg.S, 40), min(cfg.M, 25)
        x_ck, y_ck = (2,), (1,)
    else:
        # lattice and degree caps shrink with dimension to keep verify desk-scale
        S_ck = min(cfg.S, 25 if p.n == 2 else 12)
        M_ck = min(cfg.M, 12 if p.n == 2 else 8)
        x_ck = (1,) + (0,) * (p.n - 1)
        y_ck = (0, 1) + (0,) * (p.n - 2)
    ck = bdprocess.chapman_kolmogorov_check(
        p, sd, x_ck, y_ck, CK_TIME, CK_TIME, S_ck, M_ck
    )
    record("chapman_kolmogorov", ck["residual"], cfg.eps_ck)
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    p = cfg.params()
    if p.degenerate:
        print(f"degenerate parameters: {DEGENERATE_DIAGNOSTIC}", file=sys.stderr)
        return EXIT_DEGENERATE
    try:
        checks = _verify_checks(cfg)
    except TailTooLarge as e:
        print(f"verification aborted: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    all_pass = all(c["pass"] for c in checks.values())
    _write_json(
        _out_path(cfg, "verify_report.json"),
        {"checks": checks, "all_pass": all_pass},
    )
    for name, c in checks.items():
        print(
            f"{'PASS' if c['pass'] else 'FAIL'}  {name:24s} "
            f"residual={c['residual']:.3e}  tol={c['tolerance']:.1e}"
        )
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def cmd_simulate(cfg: RunConfig) -> int:
    p = cfg.params()
    if p.degenerate:
        print(f"degenerate parameters: {DEGENERATE_DIAGNOSTIC}", file=sys.stderr)
        return EXIT_DEGENERATE
    sd = spectral.solve(p)
    x0 = (0,) * p.n
    sim = bdprocess.simulate(p, x0, cfg.t, cfg.seed, cfg.n_traj)
    report = bdprocess.compare_sim_spectral(p, sd, sim, cfg.M)

    lines = ["state,count,frequency,stderr,spectral,z"]
    for row in report.rows:
        z = "" if row.z is None else f"{row.z:.6f}"
        state = ":".join(str(v) for v in row.state)
        lines.append(
            f"{state},{row.count},{row.frequency:.17g},{row.stderr:.17g},"
            f"{row.spectral:.17g},{z}"
        )
    summary = (
        f"# chi2={report.chi2:.6f} dof={report.dof} p_value={report.p_value:.6g} "
        f"max_abs_z={report.max_abs_z:.4f} seed={sim.seed} "
        f"generator={sim.bit_generator} n_traj={sim.n_traj} cap_hits={sim.cap_hits} "
        f"clamped_mass={report.clamped_mass:.6g}"
    )
    lines.append(summary)
    with replacing(_out_path(cfg, "sim_vs_spectral.csv")) as fh:
        fh.write("\n".join(lines) + "\n")
    print(summary.lstrip("# "))
    ok = report.p_value > CHI2_P_THRESHOLD and report.max_abs_z <= Z_LIMIT
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def integer(text: str) -> int | float:
    """An integer flag's value.  A non-integral number is passed on, so that
    RunConfig.validate rejects it with the message it gives in the config
    file.  Text that is no number at all is a usage error, which argparse
    words by this function's name: "invalid integer value"."""
    try:
        return int(text)
    except ValueError:
        return float(text)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as invalid input (exit 1): argparse's own code,
    2, is the CLI's code for coincident rates."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mvmeixner",
        description="Multivariate Meixner / birth-death verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("spectrum", cmd_spectrum),
        ("table", cmd_table),
        ("verify", cmd_verify),
        ("simulate", cmd_simulate),
    ):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("config", help="path to the JSON run config")
        sp.add_argument("--beta", type=float)
        sp.add_argument("--c", type=str, help="comma-separated rates, e.g. 0.2,0.3")
        sp.add_argument("--S", type=integer)
        sp.add_argument("--max-deg", dest="max_deg", type=integer)
        sp.add_argument("--M", type=integer)
        sp.add_argument("--D", type=integer)
        sp.add_argument("--eps-orth", dest="eps_orth", type=float)
        sp.add_argument("--eps-eigen", dest="eps_eigen", type=float)
        sp.add_argument("--eps-ck", dest="eps_ck", type=float)
        sp.add_argument("--seed", type=integer)
        sp.add_argument("--n-traj", dest="n_traj", type=integer)
        sp.add_argument("--t", type=float)
        sp.add_argument("--output-dir", dest="output_dir", type=str)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("MVMEIXNER_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        return args.fn(cfg)
    except (ConfigError, ParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except MeixnerError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
