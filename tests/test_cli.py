import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mvmeixner
from mvmeixner import bdprocess, operators, spectral
from mvmeixner.cli import (
    EXIT_DEGENERATE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    load_config,
    main,
)
from mvmeixner.errors import ConfigError


def write_config(tmp_path, **overrides):
    cfg = {
        "beta": 1.5,
        "c": [0.2, 0.3],
        "limits": {"S": 30, "max_deg": 3, "M": 15, "D": 8},
        "tolerances": {"eps_orth": 1e-6, "eps_eigen": 1e-8, "eps_ck": 1e-5},
        "sim": {"seed": 42, "n_traj": 4000, "t": 1.0},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_load_defaults_applied(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"beta": 1.0, "c": [0.5]}')
        cfg = load_config(path)
        assert cfg.S == 30 and cfg.M == 15 and cfg.seed == 42

    def test_json_error_reports_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"beta": 1.0,\n "c": [0.5],}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"beta": 1.0, "c": [0.5], "limits": {"bogus": 3}}')
        with pytest.raises(ConfigError, match="limits.bogus"):
            load_config(path)

    def test_missing_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"beta": 1.0}')
        with pytest.raises(ConfigError, match="'c'"):
            load_config(path)

    def test_tolerance_range_checked(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"beta": 1.0, "c": [0.5], "tolerances": {"eps_orth": 2.0}}')
        with pytest.raises(ConfigError, match="eps_orth"):
            load_config(path)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range_checked(self, tmp_path, seed):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"beta": 1.0, "c": [0.5], "sim": {"seed": seed}}))
        with pytest.raises(ConfigError, match="sim.seed"):
            load_config(path)

    # a float would die in range() or truncate the seed, and JSON true would
    # run as 1: each is invalid input, in the file or as a flag
    @pytest.mark.parametrize(
        "section,name,value,via",
        [
            ("sim", "n_traj", 1000.5, "config"),
            ("limits", "S", 30.5, "config"),
            ("sim", "seed", 42.7, "config"),
            ("limits", "max_deg", True, "config"),
            ("limits", "M", 15.0, "config"),
            ("sim", "n_traj", "1000.5", "flag"),
            ("limits", "S", "30.5", "flag"),
            ("sim", "seed", "42.7", "flag"),
            ("limits", "D", "8.0", "flag"),
        ],
    )
    def test_integer_fields_typed(self, tmp_path, capsys, section, name, value, via):
        if via == "config":
            argv = ["simulate", write_config(tmp_path, **{section: {name: value}})]
        else:
            flag = "--" + name.replace("_", "-")
            argv = ["simulate", write_config(tmp_path), flag, value]
        assert main(argv) == EXIT_INVALID
        assert f"{section}.{name} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--max-deg", "true"], "argument --max-deg: invalid integer value: 'true'"),
            (["--beta", "abc"], "argument --beta: invalid float value: 'abc'"),
            (None, "the following arguments are required: config"),
        ],
        ids=["max-deg-true", "beta-abc", "no-config"],
    )
    def test_usage_error_is_invalid_input(self, tmp_path, capsys, extra, message):
        argv = ["spectrum"] if extra is None else ["spectrum", write_config(tmp_path), *extra]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "usage: mvmeixner spectrum" in err
        assert f"mvmeixner spectrum: error: {message}\n" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--help"])
        assert exc.value.code == EXIT_OK
        assert "usage: mvmeixner spectrum" in capsys.readouterr().out


class TestSpectrumCommand:
    def test_valid_instance(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["spectrum", cfg]) == EXIT_OK
        payload = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        assert set(payload) == {"lambda", "u", "cbar", "residuals"}
        assert len(payload["lambda"]) == 2

    def test_degenerate_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, c=[0.4, 0.4])
        assert main(["spectrum", cfg]) == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert "distinct" in err
        payload = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        assert payload["degenerate"] is True
        assert payload["lambda"] == pytest.approx([0.5, 2.5], abs=1e-12)

    def test_invalid_mass(self, tmp_path):
        cfg = write_config(tmp_path, c=[0.6, 0.6])
        assert main(["spectrum", cfg]) == EXIT_INVALID

    def test_nan_residual_fails(self, tmp_path, monkeypatch):
        # a NaN after the first residual: max() over the residuals would drop it
        real = spectral.solve

        def nan_residual(*args, **kwargs):
            sd = real(*args, **kwargs)
            last = [k for k in sd.residuals if k != "cbar_mass"][-1]
            return replace(sd, residuals={**sd.residuals, last: float("nan")})

        monkeypatch.setattr(spectral, "solve", nan_residual)
        assert main(["spectrum", write_config(tmp_path)]) == EXIT_VERIFY_FAILED

    def test_flag_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out2 = tmp_path / "other"
        assert main(["spectrum", cfg, "--c", "0.5", "--beta", "1.0",
                     "--output-dir", str(out2)]) == EXIT_OK
        payload = json.loads((out2 / "spectrum.json").read_text())
        assert payload["lambda"][0] == pytest.approx(1.0, abs=1e-13)


class TestTableCommand:
    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, limits={"S": 6, "max_deg": 2, "M": 8, "D": 8})
        assert main(["table", cfg]) == EXIT_OK
        first = (tmp_path / "out" / "poly_table.csv").read_bytes()
        assert main(["table", cfg]) == EXIT_OK
        assert (tmp_path / "out" / "poly_table.csv").read_bytes() == first

    def test_first_row_ones(self, tmp_path):
        cfg = write_config(tmp_path, limits={"S": 4, "max_deg": 2, "M": 8, "D": 8})
        main(["table", cfg])
        lines = (tmp_path / "out" / "poly_table.csv").read_text().splitlines()
        row0 = lines[1].split(",")
        assert row0[0] == "0:0"
        assert all(v == "1" for v in row0[1:])

    def test_n1_matches_single_variable(self, tmp_path):
        from conftest import meixner_1d

        cfg = write_config(
            tmp_path, beta=1.0, c=[0.5],
            limits={"S": 5, "max_deg": 3, "M": 8, "D": 8},
        )
        main(["table", cfg])
        lines = (tmp_path / "out" / "poly_table.csv").read_text().splitlines()
        for m, line in enumerate(lines[1:]):
            cells = line.split(",")
            for x, cell in enumerate(cells[1:]):
                assert float(cell) == pytest.approx(
                    meixner_1d(1.0, 0.5, m, x), rel=1e-12, abs=1e-12
                )

    def test_degenerate_refused(self, tmp_path):
        cfg = write_config(tmp_path, c=[0.4, 0.4])
        assert main(["table", cfg]) == EXIT_DEGENERATE


class TestVerifyCommand:
    def test_standard_instance_all_pass(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["verify", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["all_pass"] is True
        expected = {
            "constraints", "orthogonality_offdiag", "orthogonality_diag",
            "moments", "eigen", "h_symmetry", "factorization", "h_zero_mode",
            "h_spectrum_floor", "genfun_identity", "chapman_kolmogorov",
        }
        assert expected <= set(report["checks"])
        for check in report["checks"].values():
            assert check["pass"] is True

    def test_n1_instance_all_pass(self, tmp_path):
        cfg = write_config(tmp_path, beta=1.0, c=[0.5])
        assert main(["verify", cfg]) == EXIT_OK

    def test_degenerate_refused(self, tmp_path):
        cfg = write_config(tmp_path, c=[0.4, 0.4])
        assert main(["verify", cfg]) == EXIT_DEGENERATE

    def test_unreachable_tolerance_fails(self, tmp_path):
        # an impossibly tight eps_ck must flip the exit code, not be clamped
        cfg = write_config(
            tmp_path,
            tolerances={"eps_orth": 1e-6, "eps_eigen": 1e-8, "eps_ck": 1e-30},
        )
        assert main(["verify", cfg]) == EXIT_VERIFY_FAILED
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["all_pass"] is False
        assert report["checks"]["chapman_kolmogorov"]["pass"] is False

    @pytest.mark.parametrize(
        "check,name,field",
        [("eigen", "eigen_check", None), ("genfun_identity", "genfun_identity_richardson", "residual")],
    )
    def test_nan_residual_fails(self, tmp_path, monkeypatch, check, name, field):
        # a NaN after the first residual: max() over the residuals would drop it
        real, calls = getattr(operators, name), []

        def second_nan(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:
                out = float("nan") if field is None else {**out, field: float("nan")}
            return out

        monkeypatch.setattr(operators, name, second_nan)
        cfg = write_config(tmp_path, beta=1.0, c=[0.5])
        assert main(["verify", cfg]) == EXIT_VERIFY_FAILED
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["checks"][check]["residual"] != report["checks"][check]["residual"]
        assert report["checks"][check]["pass"] is False


    @pytest.mark.parametrize(
        "check,module,name,field",
        [
            ("moments", bdprocess, "moment_check", "second"),
            ("h_spectrum_floor", operators, "operator_algebra_report", "interior_eigenvalue_floor"),
        ],
    )
    def test_nan_field_fails(self, tmp_path, monkeypatch, check, module, name, field):
        # max(0.0, nan) is 0.0, so a max() over the fields would pass the NaN
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: {**real(*a, **k), field: float("nan")})
        cfg = write_config(tmp_path, beta=1.0, c=[0.5])
        assert main(["verify", cfg]) == EXIT_VERIFY_FAILED
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["checks"][check]["residual"] != report["checks"][check]["residual"]
        assert report["checks"][check]["pass"] is False


class TestSimulateCommand:
    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, beta=1.0, c=[0.5],
                           sim={"seed": 9, "n_traj": 3000, "t": 0.8})
        assert main(["simulate", cfg]) == EXIT_OK
        first = (tmp_path / "out" / "sim_vs_spectral.csv").read_bytes()
        assert main(["simulate", cfg]) == EXIT_OK
        assert (tmp_path / "out" / "sim_vs_spectral.csv").read_bytes() == first

    def test_csv_shape_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, beta=1.0, c=[0.5],
                           sim={"seed": 5, "n_traj": 2000, "t": 0.5})
        main(["simulate", cfg])
        lines = (tmp_path / "out" / "sim_vs_spectral.csv").read_text().splitlines()
        assert lines[0] == "state,count,frequency,stderr,spectral,z"
        assert lines[-1].startswith("# chi2=")
        assert "generator=philox" in lines[-1]
        counts = sum(int(l.split(",")[1]) for l in lines[1:-1])
        assert counts == 2000

    def test_spectral_column_cap_fails(self, tmp_path, capsys):
        # the spectral column misses its mass tolerance at the S cap: a
        # verification failure, with no CSV written
        cfg = write_config(tmp_path, beta=5.0, c=[0.9], limits={"M": 15},
                           sim={"seed": 42, "n_traj": 300, "t": 5.0})
        assert main(["simulate", cfg]) == EXIT_VERIFY_FAILED
        assert "at S=120" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sim_vs_spectral.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_invalid(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, beta=1.0, c=[0.5])
        assert main(["simulate", cfg, "--seed", seed]) == EXIT_INVALID
        assert "sim.seed" in capsys.readouterr().err

    # a NaN or infinite t ran every trajectory to the event cap
    @pytest.mark.parametrize("t", ["nan", "inf"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_finite_time_is_invalid(self, tmp_path, capsys, t, via):
        if via == "flag":
            argv = ["simulate", write_config(tmp_path), "--t", t, "--n-traj", "10"]
        else:
            path = tmp_path / "c.json"
            path.write_text('{"beta": 1.0, "c": [0.5], "sim": {"n_traj": 10, "t": %s}}'
                            % {"nan": "NaN", "inf": "Infinity"}[t])
            argv = ["simulate", str(path)]
        assert main(argv) == EXIT_INVALID
        assert "sim.t must be finite" in capsys.readouterr().err

    def test_degree_past_170_is_invalid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, beta=1.0, c=[0.5])
        assert main(["table", cfg, "--max-deg", "171"]) == EXIT_INVALID
        assert "171 exceeds 170" in capsys.readouterr().err
        assert main(["simulate", cfg, "--M", "171", "--n-traj", "10"]) == EXIT_INVALID


class TestWholeArtifacts:
    """Each artifact is written under a temporary name beside it and moved
    over it once complete, so a failure leaves the old file's bytes and no
    temporary file."""

    @pytest.mark.parametrize(
        "command, artifact",
        [
            ("spectrum", "spectrum.json"),
            ("table", "poly_table.csv"),
            ("verify", "verify_report.json"),
            ("simulate", "sim_vs_spectral.csv"),
        ],
    )
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, command, artifact):
        cfg = write_config(
            tmp_path, beta=1.0, c=[0.5], limits={"S": 6, "max_deg": 2, "M": 8, "D": 8},
            sim={"seed": 9, "n_traj": 500, "t": 0.8},
        )
        out = tmp_path / "out"
        out.mkdir()
        (out / artifact).write_bytes(b"old\n")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            main([command, cfg])
        assert os.listdir(out) == [artifact]
        assert (out / artifact).read_bytes() == b"old\n"


class TestColdImport:
    # the package runs on numpy alone: scipy is a test dependency only
    @staticmethod
    def _run(code):
        """The last line code prints in a fresh interpreter."""
        src = str(Path(mvmeixner.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        out = subprocess.run(
            [sys.executable, "-c", "import sys; " + code],
            env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip().splitlines()[-1]

    def _scipy_after(self, code):
        """The scipy modules loaded once code has run in a fresh interpreter."""
        return self._run(
            code + "; print(sorted(k for k in sys.modules if k.partition('.')[0] == 'scipy'))"
        )

    @pytest.mark.parametrize("module", ["mvmeixner", "mvmeixner.cli"])
    def test_import_loads_no_scipy(self, module):
        assert self._scipy_after(f"import {module}") == "[]"

    def test_verify_loads_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path, beta=1.0, c=[0.5])
        code = f"from mvmeixner.cli import main; assert main(['verify', {cfg!r}]) == 0"
        assert self._scipy_after(code) == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # with scipy's import made to fail, every command still succeeds
        cfg = write_config(tmp_path, beta=1.0, c=[0.5],
                           sim={"seed": 9, "n_traj": 3000, "t": 0.8})
        commands = ["spectrum", "table", "verify", "simulate"]
        code = (
            "sys.modules['scipy'] = None; from mvmeixner.cli import main; "
            f"print([main([command, {cfg!r}]) for command in {commands!r}])"
        )
        assert self._run(code) == "[0, 0, 0, 0]"
