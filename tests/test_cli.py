import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shockbeta.coupled
import shockbeta.model
import shockbeta.profile
import shockbeta.serialize
from shockbeta.auxiliary import AuxMethod
from shockbeta.beta import BetaQuadrature
from shockbeta.cli import build_parser, main
from shockbeta.config import KEYS, PARSERS, RunConfig, parse_config_file
from shockbeta.coupled import continuation_scan
from shockbeta.model import (
    quadratic_transverse_flux, sine_transverse_flux, standing_shock,
)
from shockbeta.profile import check_resolution
from shockbeta.serialize import read_profile_csv

ROOT = Path(__file__).resolve().parent.parent
EXACT_CASE_CFG = ROOT / "configs" / "exact_case.cfg"
SINE_SCAN_CFG = ROOT / "configs" / "sine_scan.cfg"


@pytest.fixture()
def exact_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# exactly solvable validation case\n"
        "flux = quadratic_transverse\n"
        "u_minus = 1.0\n"
        "u_plus = -1.0\n"
        "xi0 = 1.0\n"
        "L = 20\n"
        "N = 1000\n"
        "method = both\n"
    )
    return cfg


def run(args):
    return main([str(a) for a in args])


class TestProfileCommand:
    def test_writes_csv_with_midpoint_row(self, exact_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["profile", "--config", exact_config, "--out-dir", out]) == 0
        lines = (out / "profile.csv").read_text().splitlines()
        rows = [l for l in lines if not l.startswith("#")][1:]
        mid = rows[len(rows) // 2].split(",")
        assert [float(c) for c in mid] == [0.0, 0.0, -0.5]

    def test_small_domain_exits_3(self, exact_config, tmp_path, capsys):
        code = run(["profile", "--config", exact_config, "--L", "1",
                    "--out-dir", tmp_path / "o"])
        assert code == 3
        assert "TailNotResolved" in capsys.readouterr().err

    def test_missing_state_exits_2(self, tmp_path, capsys):
        code = run(["profile", "--flux", "quadratic_transverse",
                    "--u-minus", "1.0", "--xi0", "1.0",
                    "--out-dir", tmp_path / "o"])
        assert code == 2
        assert "u_plus" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("u_minuss = 1.0\n")
        assert run(["profile", "--config", bad]) == 2

    def test_non_monotone_profile_exits_3(self, exact_config, tmp_path, capsys,
                                          monkeypatch):
        closed_form = shockbeta.profile._tanh_profile

        def wiggly(cfg, x):
            ubar = closed_form(cfg, x).copy()
            ubar[10] += 1e-9
            return ubar

        monkeypatch.setattr(shockbeta.profile, "_tanh_profile", wiggly)
        out = tmp_path / "o"
        code = run(["profile", "--config", exact_config, "--out-dir", out])
        assert code == 3
        assert "not monotone" in capsys.readouterr().err
        assert not (out / "profile.csv").exists()

    @pytest.mark.parametrize("command", ["profile", "aux", "beta"])
    def test_tangent_rest_point_exits_2(self, command, tmp_path, capsys):
        # f1 = (u^2 - 1)(u - 1/3)^2: a double root inside (-1, 1)
        code = run([command, "--flux", "custom",
                    "--f1-coeffs=-0.1111111111111111,0.6666666666666666,"
                    "-0.8888888888888888,-0.6666666666666666,1",
                    "--f2-coeffs", "0,0,1", "--u-minus", "1", "--u-plus", "-1",
                    "--xi0", "1", "--out-dir", tmp_path / "o"])
        assert code == 2
        assert "rest point" in capsys.readouterr().err

    @pytest.mark.parametrize("L, N", [("40", "8000"), ("200", "40000")])
    def test_wide_domain_profile_is_monotone(self, L, N, tmp_path):
        out = tmp_path / "o"
        assert run(["profile", "--config", EXACT_CASE_CFG, "--L", L, "--N", N,
                    "--out-dir", out]) == 0
        profile, _ = read_profile_csv(out / "profile.csv")
        assert np.all(np.diff(profile.ubar) <= 0.0)


class TestFileSystemErrors:
    """Unreadable config paths and unwritable output paths are configuration
    errors: exit 2 with an ``error:`` line, never a traceback."""

    def _assert_config_error(self, args, capsys):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        self._assert_config_error(
            ["profile", "--config", tmp_path, "--out-dir", tmp_path / "o"], capsys)

    def test_out_dir_under_a_regular_file(self, exact_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        self._assert_config_error(
            ["profile", "--config", exact_config,
             "--out-dir", blocker / "out"], capsys)

    def test_output_path_is_a_directory(self, exact_config, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "profile.csv").mkdir(parents=True)
        self._assert_config_error(
            ["profile", "--config", exact_config, "--out-dir", out], capsys)

    def test_grid_too_large_to_allocate(self, tmp_path, capsys):
        # 10**15 nodes ask for about 7 PiB, beyond any address space, so the
        # allocation is refused without touching memory
        self._assert_config_error(
            ["profile", "--config", EXACT_CASE_CFG, "--N", 10**15,
             "--out-dir", tmp_path / "o"], capsys)

    @pytest.mark.parametrize("command", [
        ["profile", "--config", EXACT_CASE_CFG, "--L", "20"],
        ["aux", "--config", EXACT_CASE_CFG, "--L", "20"],
        ["beta", "--config", EXACT_CASE_CFG],
        ["scan", "--config", SINE_SCAN_CFG],
        ["compare", "--config", EXACT_CASE_CFG, "--L", "20"],
    ])
    def test_grid_above_the_interval_budget(self, command, tmp_path, capsys,
                                            monkeypatch):
        # an N that fits the address space but not memory is refused before
        # its grid is allocated: linspace raises if it is asked for that grid
        N = shockbeta.profile._MAX_INTERVALS + 2
        linspace = np.linspace

        def no_grid(start, stop, num=50, **kwargs):
            if num > N:
                raise AssertionError("a grid was allocated before the budget check")
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "o"
        assert run([*command, "--N", N, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field 'N': {N} intervals exceed the budget")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["profile", "--config", EXACT_CASE_CFG],
        ["aux", "--config", EXACT_CASE_CFG],
        ["beta", "--config", EXACT_CASE_CFG],
        ["scan", "--config", SINE_SCAN_CFG],
        ["compare", "--config", EXACT_CASE_CFG],
    ])
    def test_half_width_whose_grid_overflows(self, command, tmp_path, capsys):
        # 2L = inf: profile once wrote a nan/inf grid with numpy warnings,
        # and the others named an N of "about inf"
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*command, "--L", "1e308", "--N", "4000",
                        "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'L': 1e+308 is too wide")
        assert not out.exists()


class TestConfigValues:
    """Malformed values and unknown choices are configuration errors (exit 2)
    for every command, whether they come from a flag or a file."""

    COMMANDS = ("profile", "aux", "beta", "scan", "compare")

    def _assert_field_error(self, args, field, capsys):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"field '{field}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--N", "abc"), ("--xi0", "x"), ("--L", "20,a"),
         # empty lists
         ("--L", ","), ("--f1-coeffs", ","),
         # non-finite numbers
         ("--xi0", "nan"), ("--L", "inf")],
    )
    def test_malformed_flag_exits_2(self, flag, value, exact_config, tmp_path,
                                    capsys):
        out = tmp_path / "o"
        self._assert_field_error(
            ["profile", "--config", exact_config, flag, value,
             "--out-dir", out], flag[2:].replace("-", "_"), capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--tail-tol", "nan"), ("--tol", "nan"), ("--tail-tol", "-1"),
         ("--decay-tol", "-1"), ("--tol", "0"), ("--tol", "-1")],
    )
    def test_tolerance_flag_exits_2(self, flag, value, exact_config, tmp_path):
        # every acceptance threshold is a constant: no flag sets one
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as ei:
            run(["profile", "--config", exact_config, flag, value,
                 "--out-dir", out])
        assert ei.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["profile", "aux", "scan", "compare"])
    def test_list_of_half_widths_exits_2(self, command, exact_config, tmp_path,
                                         capsys):
        # only beta reads a list of L; the others once took its first value
        out = tmp_path / "o"
        self._assert_field_error(
            [command, "--config", exact_config, "--u-minus-list", "1.0",
             "--L", "10,20", "--out-dir", out], "L", capsys)
        assert not out.exists()

    @pytest.mark.parametrize("args, field", [
        (["aux", "--L", "-5"], "L"),
        (["beta", "--L", "0,20"], "L"),
        (["aux", "--L", "20", "--N", "0"], "N"),
        (["beta", "--L", "20,20"], "L"),
    ])
    def test_grid_error_names_its_field(self, args, field, tmp_path, capsys):
        out = tmp_path / "o"
        self._assert_field_error(
            [*args, "--config", EXACT_CASE_CFG, "--out-dir", out], field, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("args, field", [
        (["--flux", "burgers", "--f2-coeffs", "0,0,5"], "f2_coeffs"),
        (["--flux", "quadratic_transverse", "--sine-freq", "3"], "sine_freq"),
        (["--flux", "sine_transverse", "--f1-coeffs", "0,0,1"], "f1_coeffs"),
        (["--flux", "custom", "--f1-coeffs", "0,0,0.5", "--f2-coeffs", "0,0,1",
          "--sine-freq", "3"], "sine_freq"),
    ])
    def test_parameter_the_flux_does_not_take_exits_2(self, args, field, tmp_path,
                                                       capsys):
        # once ignored, so a different flux was computed than the one asked for
        out = tmp_path / "o"
        self._assert_field_error(
            ["beta", *args, "--u-minus", "1", "--u-plus", "-1", "--xi0", "1",
             "--out-dir", out], field, capsys)
        assert not out.exists()

    def test_malformed_file_value_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("u_minus = 1.0\nN = abc\n")
        self._assert_field_error(["profile", "--config", bad], "N", capsys)

    @pytest.mark.parametrize(
        "command, flag, value",
        [("scan", "--method", "bogus"), ("aux", "--quadrature", "nope"),
         ("compare", "--quadrature", "nope"),
         # scan solves the coupled route only; it once ran it under 'if'
         ("scan", "--method", "if")],
    )
    def test_bad_choice_exits_2_where_unused(self, command, flag, value,
                                             exact_config, tmp_path, capsys):
        out = tmp_path / "o"
        self._assert_field_error(
            [command, "--config", exact_config, "--u-minus-list", "1.0",
             flag, value, "--out-dir", out], flag[2:], capsys)
        assert not out.exists()

    def test_bad_choice_in_a_file_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("u_minus = 1.0\nmethod = bogus\n")
        out = tmp_path / "o"
        assert run(["profile", "--config", bad, "--out-dir", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:2: field 'method': expected if | coupled | both, "
            "got 'bogus'\n")
        assert not out.exists()

    def test_choices_are_enums_when_read(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = if\nquadrature = simpson\n")
        rc = parse_config_file(cfg)
        assert rc.method == (AuxMethod.INTEGRATING_FACTOR,)
        assert rc.quadrature is BetaQuadrature.SIMPSON
        assert PARSERS["method"]("both") == (AuxMethod.INTEGRATING_FACTOR,
                                             AuxMethod.COUPLED)

    def test_non_integer_N_message_matches_the_other_fields(
            self, exact_config, tmp_path, capsys):
        # int()'s own message once leaked: "invalid literal for int() ..."
        out = tmp_path / "o"
        assert run(["profile", "--config", exact_config, "--N", "1e9",
                    "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err == "error: field 'N': expected an integer, got '1e9'\n"
        assert not out.exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfeu_minus = 1.0\n")
        assert run(["profile", "--config", bad, "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "Traceback" not in err

    def test_negative_value_as_its_own_argument(self, tmp_path):
        # argparse alone reads '-0.1,0,0.5' and '-1e0' as options
        common = ["aux", "--flux", "custom", "--f2-coeffs", "0,0,1",
                  "--u-minus", "1", "--xi0", "1", "--L", "20", "--N", "400",
                  "--method", "if"]
        split, joined = tmp_path / "split", tmp_path / "joined"
        assert run(common + ["--f1-coeffs", "-0.1,0,0.5", "--u-plus", "-1e0",
                             "--out-dir", split]) == 0
        assert run(common + ["--f1-coeffs=-0.1,0,0.5", "--u-plus=-1e0",
                             "--out-dir", joined]) == 0
        names = sorted(p.name for p in split.iterdir())
        assert names == ["aux_if.csv", "profile_if.csv"]
        assert names == sorted(p.name for p in joined.iterdir())
        for name in names:
            assert (split / name).read_bytes() == (joined / name).read_bytes()

    def test_every_config_key_is_a_flag_on_every_command(self):
        parser = build_parser()
        for command in self.COMMANDS:
            for key in PARSERS:
                flag = "--" + key.replace("_", "-")
                args = parser.parse_args([command, flag, "7"])
                assert getattr(args, key) == "7", (command, flag)


class TestParser:
    """One parser: the command is a positional choice, the flags are shared."""

    COMMANDS = TestConfigValues.COMMANDS

    def test_help_names_every_command(self):
        text = build_parser().format_help()
        for command in self.COMMANDS:
            # a line of its own, with what the command does
            assert re.search(rf"^  {command} +\w", text, re.MULTILINE), command

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            build_parser().parse_args(["bogus"])
        assert ei.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_command_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["beta", "--help"])
        assert ei.value.code == 0
        assert "--u-minus-list" in capsys.readouterr().out

    def test_each_key_is_declared_by_its_field_alone(self):
        # a key's one entry of KEYS carries its default, its parser and its
        # flag help, and RunConfig, PARSERS and the flags are read from them
        assert all(callable(parse) for _, parse, _ in KEYS.values())
        assert list(PARSERS) == list(KEYS)
        assert vars(RunConfig()) == {key: default for key, (default, _, _) in KEYS.items()}
        assert RunConfig(N=400, xi0=2.0).N == 400
        with pytest.raises(TypeError, match=r"RunConfig takes no key \['tau0'\]"):
            RunConfig(tau0=0.3)
        helps = {a.dest: a.help for a in build_parser()._actions}
        assert {key: helps[key] for key in KEYS} == {
            key: help_text for key, (_, _, help_text) in KEYS.items()}
        for key, accepted in (
                ("method", [m.value for m in AuxMethod] + ["both"]),
                ("quadrature", [q.value for q in BetaQuadrature])):
            assert helps[key] == " | ".join(accepted), key
            for choice in helps[key].split(" | "):
                PARSERS[key](choice)
            refusal = rf"expected {re.escape(helps[key])}, got 'bogus'"
            with pytest.raises(ValueError, match=refusal):
                PARSERS[key]("bogus")


class TestWarningLine:
    def test_command_warning_is_one_line_without_a_package_file(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "shockbeta.cli", "aux",
             "--flux", "sine_transverse", "--u-minus", "1", "--u-plus", "-1",
             "--xi0", "1", "--L", "20", "--N", "82", "--method", "if",
             "--out-dir", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(
            "warning: QuadratureDegraded: cumulative Simpson refinement estimate")
        assert ".py:" not in proc.stderr

    def test_formatter_is_restored_after_the_command(self, exact_config, tmp_path):
        before = warnings.formatwarning
        out = tmp_path / "o"
        assert run(["profile", "--config", exact_config, "--out-dir", out]) == 0
        assert warnings.formatwarning is before


class TestAuxCommand:
    def test_fold_mismatch_exits_3(self, exact_config, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.setattr(shockbeta.coupled, "_FOLD_TOL", -1.0)
        code = run(["aux", "--config", exact_config, "--method", "coupled",
                    "--out-dir", tmp_path / "o"])
        assert code == 3
        err = capsys.readouterr().err
        assert "SolverError: fold duplicate mismatch" in err
        assert "Traceback" not in err

    def test_coupled_route_solves_from_the_outward_guess(self, tmp_path,
                                                         monkeypatch):
        # the benchmark self-test asserts that the aux workload's coupled
        # guess integrates: aux keeps one outward integration per solve
        real = shockbeta.coupled.initial_guess
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(shockbeta.coupled, "initial_guess", spy)
        assert run(["aux", "--config", SINE_SCAN_CFG, "--N", "4000",
                    "--method", "both", "--out-dir", tmp_path / "o"]) == 0
        assert len(calls) == 1


class TestBetaCommand:
    def test_table_reproduction(self, exact_config, tmp_path):
        out = tmp_path / "out"
        assert run(["beta", "--config", exact_config, "--L", "10,20,30",
                    "--N", "2000", "--out-dir", out]) == 0
        manifest = json.loads((out / "beta_manifest.json").read_text())
        assert manifest["sign_stable"] is True
        entries = {(e["method"], e["L"]): e for e in manifest["entries"]}
        assert len(entries) == 6
        for (method, L), e in entries.items():
            target = 9.9918 if L == 10 else 10.0
            assert abs(e["beta"][0] - target) < 5e-3
            assert abs(e["beta"][1]) <= 1e-8
            assert e["sign_re_beta"] == 1
        table = (out / "beta_table.csv").read_text().splitlines()
        assert table[1].split(",") == ["method", "L=10", "L=20", "L=30"]

    def test_coupled_entries_carry_solver_counters(self, exact_config, tmp_path):
        out = tmp_path / "out"
        assert run(["beta", "--config", exact_config, "--out-dir", out]) == 0
        entries = json.loads((out / "beta_manifest.json").read_text())["entries"]
        keys = ("mesh_size", "mesh_sweeps", "newton_per_sweep")
        for e in entries:
            d = e["diagnostics"]
            if e["method"] == "coupled":
                assert d["mesh_sweeps"] == len(d["newton_per_sweep"]) >= 1
                # a cold solve never coarsens its 401-node starting mesh
                assert d["mesh_size"] >= 401
            else:
                assert not any(k in d for k in keys)

    def test_fold_mismatch_fails_each_coupled_entry(self, tmp_path, capsys,
                                                    monkeypatch):
        # each coupled solve checks its fold once and fails; the if row stands
        monkeypatch.setattr(shockbeta.coupled, "_FOLD_TOL", -1.0)
        out = tmp_path / "o"
        assert run(["beta", "--config", EXACT_CASE_CFG, "--out-dir", out]) == 0
        manifest = json.loads((out / "beta_manifest.json").read_text())
        assert sorted(manifest["failures"]) == [
            "coupled,L=10.0", "coupled,L=20.0", "coupled,L=30.0"]
        for cause in manifest["failures"].values():
            assert cause.startswith("SolverError: fold duplicate mismatch"), cause
        assert [(e["method"], e["L"]) for e in manifest["entries"]] == [
            ("if", 10.0), ("if", 20.0), ("if", 30.0)]
        assert "Traceback" not in capsys.readouterr().err

    def test_method_subset_single_row(self, exact_config, tmp_path):
        out = tmp_path / "out"
        assert run(["beta", "--config", exact_config, "--method", "if",
                    "--N", "600", "--out-dir", out]) == 0
        rows = [
            l for l in (out / "beta_table.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(rows) == 2
        assert rows[1].startswith("if,")

    def test_all_entries_failed_names_each_entry(self, tmp_path, capsys):
        code = run(["beta", "--config", EXACT_CASE_CFG, "--L", "1",
                    "--out-dir", tmp_path / "o"])
        assert code == 3
        err = capsys.readouterr().err
        assert "all table entries failed" in err
        assert "entry coupled L=1.0 failed: " in err
        assert "entry if L=1.0 failed: " in err
        assert err.index("entry coupled") < err.index("entry if")
        assert "AuxMethod" not in err

    @pytest.mark.parametrize("extra", [
        ["--method", "if"],
        ["--method", "coupled", "--quadrature", "simpson"],
    ])
    def test_odd_N_exits_2_before_any_file(self, extra, tmp_path, capsys):
        # an odd interval count is a configuration error of the whole table
        out = tmp_path / "o"
        code = run(["beta", "--config", EXACT_CASE_CFG, "--N", "4001", *extra,
                    "--out-dir", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        (["beta", "--config", EXACT_CASE_CFG, "--method", "if"], []),
        (["beta", "--config", EXACT_CASE_CFG, "--method", "coupled"],
         ["--quadrature", "simpson"]),
        (["scan", "--config", SINE_SCAN_CFG], ["--quadrature", "simpson"]),
        (["aux", "--config", EXACT_CASE_CFG, "--L", "20"], ["--method", "both"]),
        (["aux", "--config", EXACT_CASE_CFG, "--L", "20"], ["--method", "if"]),
        (["compare", "--config", EXACT_CASE_CFG, "--L", "20"], ["--method", "if"]),
        # every grid needs a node at x = 0, whatever the method and quadrature
        (["profile", "--config", EXACT_CASE_CFG, "--L", "20"], []),
        (["beta", "--config", EXACT_CASE_CFG, "--method", "coupled"], []),
        (["scan", "--config", SINE_SCAN_CFG], []),
        (["aux", "--config", EXACT_CASE_CFG, "--L", "20"], ["--method", "coupled"]),
        (["compare", "--config", EXACT_CASE_CFG, "--L", "20"],
         ["--method", "coupled"]),
    ])
    def test_odd_N_rejected_before_any_solve(self, command, extra, tmp_path,
                                             capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran before the sample-count check")

        for target in ("shockbeta.cli.solve_profile", "shockbeta.beta.solve_profile",
                       "shockbeta.beta.solve_coupled",
                       "shockbeta.coupled.solve_coupled"):
            monkeypatch.setattr(target, no_solve)
        out = tmp_path / "o"
        code = run([*command, "--N", "4001", *extra, "--out-dir", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: field 'N': 4001 is odd")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["beta", "--config", EXACT_CASE_CFG, "--L", "20"],
        ["scan", "--config", SINE_SCAN_CFG],
        ["aux", "--config", EXACT_CASE_CFG, "--L", "20"],
    ])
    def test_zero_xi0_exits_2_before_any_file(self, command, tmp_path, capsys):
        # xi0 = 0 is not a transverse mode: beta would read -0.0 as "stable"
        out = tmp_path / "o"
        code = run([*command, "--xi0", "0", "--out-dir", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: field 'xi0': ")
        assert not out.exists()

    @pytest.mark.parametrize("xi0", ["1e200", "-1e200", "1e154", "1e-160"])
    def test_unrepresentable_beta_exits_2_before_any_file(self, xi0, tmp_path,
                                                          capsys):
        # beta ~ xi0^2 overflows or turns subnormal at these xi0
        out = tmp_path / "o"
        assert run(["beta", "--config", EXACT_CASE_CFG, "--L", "20",
                    "--xi0", xi0, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'xi0': ") and "Traceback" not in err
        assert not out.exists()

    def test_tau0_is_not_a_config_key(self, exact_config, tmp_path, capsys):
        # tau0 is always derived from xi0 as the neutral zero, and every
        # acceptance threshold is a constant
        text = exact_config.read_text()
        for key in ("tau0", "tol", "tail_tol", "decay_tol"):
            exact_config.write_text(text + f"{key} = 0.3\n")
            out = tmp_path / key
            assert run(["beta", "--config", exact_config, "--out-dir", out]) == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err
            assert not out.exists()
        with pytest.raises(SystemExit) as ei:
            build_parser().parse_args(["beta", "--tau0", "0.3"])
        assert ei.value.code == 2


# f1 = A u^2, f2 = u^2 between u- = 1 and u+ = -1: beta = 2 + 2/A^2 and
# a1s(u+-) = +-2A, so the default N = 4000 at L = 20 resolves A <= 25
STEEP = ["--flux", "custom", "--f2-coeffs", "0,0,1", "--u-minus", "1",
         "--u-plus", "-1", "--xi0", "1", "--L", "20"]


class TestGridResolution:
    @pytest.mark.parametrize("A", ["1e2", "1e3", "1e200"])
    def test_steep_flux_exits_2_before_any_file(self, A, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["beta", *STEEP, "--f1-coeffs", f"0,0,{A}", "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'N': 4000 intervals on [-20, 20]")
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()

    def test_smallest_admissible_N_named(self, tmp_path, capsys):
        # h max|a1s| <= 1/2 needs N >= 4 L max|a1s| = 4 * 20 * 200
        assert run(["beta", *STEEP, "--f1-coeffs", "0,0,1e2",
                    "--out-dir", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.rstrip().endswith(
            "the smallest admissible even N is 16000")

    @pytest.mark.parametrize("command", [
        # 4 L max|a1s| = 81 at L = 20.25: the least admissible N is odd
        ["aux", "--config", EXACT_CASE_CFG, "--L", "20.25", "--N", "78",
         "--method", "if"],
        ["compare", "--config", EXACT_CASE_CFG, "--L", "20.25", "--N", "78"],
        ["beta", "--config", EXACT_CASE_CFG, "--L", "10,20.25", "--N", "78",
         "--method", "coupled", "--quadrature", "simpson"],
        ["beta", "--config", EXACT_CASE_CFG, "--L", "20.25,10", "--N", "78",
         "--method", "coupled"],
        # u- = 1.3 is the first point too coarse at N = 90, u- = 1.5 the steepest
        ["scan", "--config", SINE_SCAN_CFG, "--N", "90"],
    ])
    def test_named_N_passes_every_gate(self, command, tmp_path, capsys):
        # the refusal's advice, followed, gives a run that exits 0
        refused = tmp_path / "refused"
        assert run([*command, "--out-dir", refused]) == 2
        assert not refused.exists()
        err = capsys.readouterr().err.rstrip()
        named = err.rsplit("the smallest admissible even N is ", 1)[1]
        out = tmp_path / "o"
        assert run([*command, "--N", named, "--out-dir", out]) == 0
        if command[0] == "beta":
            manifest = json.loads((out / "beta_manifest.json").read_text())
            assert manifest["failures"] == {}

    @pytest.mark.parametrize("command", [
        ["aux", "--config", EXACT_CASE_CFG, "--L", "3e6", "--method", "if"],
        ["aux", "--config", EXACT_CASE_CFG, "--L", "5e6", "--method", "if"],
        # 2 L max|a1s(u+-)| overflows to inf
        ["beta", *STEEP[:-2], "--L", "1e200", "--f1-coeffs", "0,0,1e200"],
    ])
    def test_no_N_above_the_budget_is_named(self, command, tmp_path, capsys):
        # the least admissible N is above the interval budget, which refuses
        # it in turn: the refusal names the widest L the budget resolves
        out = tmp_path / "o"
        assert run([*command, "--N", "4000", "--out-dir", out]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: field 'N': 4000 intervals on ")
        assert "no grid within the budget of 10000000 intervals resolves it" in err
        assert "admissible even N" not in err and "about inf" not in err

    def test_named_widest_L_passes_the_budget(self, tmp_path, capsys):
        # max|a1s(u+-)| = 1, so the budget admits L <= 10**7 / 4
        assert run(["aux", "--config", EXACT_CASE_CFG, "--L", "3e6", "--N", "4000",
                    "--method", "if", "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err.rstrip()
        assert err.endswith("the budget admits L up to about 2.5e+06")
        cfg, _ = standing_shock(quadratic_transverse_flux(),
                                1.0, -1.0, 1.0)
        check_resolution(cfg, 2.5e6, shockbeta.profile._MAX_INTERVALS)

    def test_refused_ratio_never_reads_as_admissible(self, tmp_path, capsys):
        # h max|a1s| = 2002 / 4000 = 0.5005, which 3 digits would round to 0.5
        assert run(["beta", "--config", EXACT_CASE_CFG, "--L", "10,1001",
                    "--out-dir", tmp_path / "o"]) == 2
        assert "h max|a1s(u+-)| = 0.5005 > 1/2" in capsys.readouterr().err

    @pytest.mark.parametrize("A", [10.0, 25.0])
    def test_resolved_steep_flux_gives_closed_form(self, A, tmp_path):
        out = tmp_path / "o"
        assert run(["beta", *STEEP, "--f1-coeffs", f"0,0,{A:g}", "--method",
                    "both", "--out-dir", out]) == 0
        manifest = json.loads((out / "beta_manifest.json").read_text())
        assert [e["method"] for e in manifest["entries"]] == ["coupled", "if"]
        for e in manifest["entries"]:
            assert abs(e["beta"][0] / (2.0 + 2.0 / A**2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("command", [
        # the second L is too wide for N = 4000 (4 L a1s = 4004)
        ["beta", "--config", EXACT_CASE_CFG, "--L", "10,1001"],
        # u- = 1.3 gives a1s(u+-) = +-1.15, so 4 L a1s = 92 > 90
        ["scan", "--config", SINE_SCAN_CFG, "--N", "90"],
        ["aux", "--config", EXACT_CASE_CFG, "--L", "20", "--N", "78"],
        ["compare", "--config", EXACT_CASE_CFG, "--L", "20", "--N", "78"],
    ])
    def test_coarse_grid_rejected_before_any_solve(self, command, tmp_path,
                                                   capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran before the resolution check")

        for target in ("shockbeta.beta.solve_profile", "shockbeta.beta.solve_coupled",
                       "shockbeta.coupled.solve_coupled"):
            monkeypatch.setattr(target, no_solve)
        out = tmp_path / "o"
        assert run([*command, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'N': ")
        assert "> 1/2" in err
        assert not out.exists()

    def test_scan_checks_every_admissible_point(self, tmp_path, capsys,
                                                monkeypatch):
        # u- = -3 is inadmissible and left to its entry; u- = 50 after it is
        # admissible, so N = 800 is refused at u- = 50 before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a point was solved before the grid check")

        monkeypatch.setattr("shockbeta.coupled.solve_coupled", no_solve)
        out = tmp_path / "out"
        code = run(["scan", "--flux", "sine_transverse", "--u-minus", "1.0",
                    "--u-plus", "-1.0", "--xi0", "1.0", "--L", "20",
                    "--N", "800", "--u-minus-list", "1.0,-3.0,50.0",
                    "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'N': ") and "at u- = 50," in err
        assert not out.exists()


class TestScanCommand:
    def test_sine_scan_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = run(["scan", "--flux", "sine_transverse", "--u-minus", "1.0",
                    "--u-plus", "-1.0", "--xi0", "1.0", "--L", "20",
                    "--N", "1000", "--u-minus-list", "1.0,1.1,1.2",
                    "--out-dir", out])
        assert code == 0
        manifest = json.loads((out / "scan_manifest.json").read_text())
        assert manifest["stall_index"] is None and "failures" not in manifest
        assert len(manifest["points"]) == 3
        for k, p in enumerate(manifest["points"]):
            assert (out / p["file"]).exists()
            assert p["sign_re_beta"] in (-1, 1)
        # speeds recomputed at every point
        assert manifest["points"][1]["s"] == pytest.approx(0.05)

    def test_left_states_come_from_the_list(self, tmp_path):
        # scan never reads u_minus: unset, or inadmissible with u+ = -1, the
        # scan is the same and starts at the list's first value
        common = ["scan", "--flux", "burgers", "--u-plus", "-1", "--xi0", "1",
                  "--u-minus-list", "1.0,1.5", "--L", "20", "--N", "1000"]
        outs = [tmp_path / "unset", tmp_path / "inadmissible"]
        assert run([*common, "--out-dir", outs[0]]) == 0
        assert run([*common, "--u-minus", "-2", "--out-dir", outs[1]]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["point_000.csv", "point_001.csv", "scan_manifest.json"]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        points = json.loads((outs[0] / "scan_manifest.json").read_text())["points"]
        assert [p["u_minus"] for p in points] == [1.0, 1.5]

    def test_inadmissible_first_list_value_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["scan", "--flux", "burgers", "--u-minus", "1", "--u-plus", "-1",
                    "--xi0", "1", "--u-minus-list", "-2,1.0", "--L", "20",
                    "--N", "1000", "--out-dir", out]) == 2
        assert "a1(u+) - s = 0.5 must be negative" in capsys.readouterr().err
        assert not out.exists()

    def test_each_shock_is_built_once(self, tmp_path, monkeypatch):
        # one normalization per distinct scan point: the run's own shock is
        # the first, and a repeated left state reuses the previous one
        original = shockbeta.model.normalize_to_standing
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("shockbeta")
                    and getattr(module, "normalize_to_standing", None) is original):
                monkeypatch.setattr(module, "normalize_to_standing", counted)
        for k, (extra, builds) in enumerate([
                ([], 6), (["--u-minus-list", "1.0,1.0,1.1"], 2)]):
            calls.clear()
            assert run(["scan", "--config", SINE_SCAN_CFG, *extra,
                        "--out-dir", tmp_path / str(k)]) == 0
            assert len(calls) == builds

    def test_a_left_state_repeated_later_reuses_its_first_point(self, tmp_path,
                                                                monkeypatch):
        # u- = 1.0 comes back after 1.5: its point is not solved again, and
        # its file is the first one's
        original = shockbeta.coupled.solve_coupled
        solved = []

        def spy(cfg, *args, **kwargs):
            solved.append(cfg.u_minus)
            return original(cfg, *args, **kwargs)

        monkeypatch.setattr(shockbeta.coupled, "solve_coupled", spy)
        out = tmp_path / "o"
        assert run(["scan", "--flux", "burgers", "--u-plus", "-1", "--xi0", "1",
                    "--u-minus-list", "1.0,1.5,1.0", "--L", "20", "--N", "4000",
                    "--out-dir", out]) == 0
        assert solved == [1.0, 1.5]
        first, repeat = (out / f"point_00{k}.csv" for k in (0, 2))
        assert repeat.read_bytes() == first.read_bytes()

    def test_point_does_not_depend_on_the_other_points(self, tmp_path):
        # every point is solved alone from the same guess: its CSV is the
        # same whatever the list around it and its place in it
        files = []
        for k, (values, name) in enumerate([("1.0,1.4", "point_001.csv"),
                                            ("1.4,1.0", "point_000.csv"),
                                            ("1.4", "point_000.csv")]):
            out = tmp_path / str(k)
            assert run(["scan", "--config", SINE_SCAN_CFG, "--u-minus-list",
                        values, "--out-dir", out]) == 0
            files.append((out / name).read_bytes())
        assert files[0] == files[1] == files[2]

    def test_points_carry_solver_counters(self, tmp_path):
        out = tmp_path / "out"
        assert run(["scan", "--flux", "sine_transverse", "--u-minus", "1.0",
                    "--u-plus", "-1.0", "--xi0", "1.0", "--L", "20",
                    "--N", "1000", "--u-minus-list", "1.0,1.1",
                    "--out-dir", out]) == 0
        for p in json.loads((out / "scan_manifest.json").read_text())["points"]:
            assert p["mesh_sweeps"] == len(p["newton_per_sweep"]) >= 1
            assert p["newton_iters"] == sum(p["newton_per_sweep"])
            assert p["mesh_size"] > 401

    def test_points_record_what_their_solve_made(self, tmp_path):
        # the manifest's counters are those the collocation solve returned
        out = tmp_path / "out"
        assert run(["scan", "--flux", "sine_transverse", "--u-plus", "-1.0",
                    "--xi0", "1.0", "--L", "20", "--N", "1000",
                    "--u-minus-list", "1.0,1.1", "--out-dir", out]) == 0
        points = json.loads((out / "scan_manifest.json").read_text())["points"]
        f = sine_transverse_flux()
        cfg0, freq0 = standing_shock(f, 1.0, -1.0, 1.0)
        solved = continuation_scan(cfg0, f, 1.0, [1.0, 1.1], 20.0, 1000, freq0=freq0)
        for p, pt in zip(points, solved, strict=True):
            assert p["newton_iters"] == pt.bvp.newton_iters
            assert p["residual_norm"] == pt.bvp.residual_norm
            assert p["mesh_size"] == pt.bvp.mesh.size
            assert p["mesh_sweeps"] == pt.bvp.mesh_iterations
            assert p["newton_per_sweep"] == list(pt.bvp.newton_per_sweep)
            assert p["aux_tail"] == pt.aux.tail_magnitudes()

    def test_stall_preserves_partials_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["scan", "--flux", "sine_transverse", "--u-minus", "1.0",
                    "--u-plus", "-1.0", "--xi0", "1.0", "--L", "20",
                    "--N", "800", "--u-minus-list", "1.0,-3.0",
                    "--out-dir", out])
        assert code == 3
        manifest = json.loads((out / "scan_manifest.json").read_text())
        assert manifest["stall_index"] == 1
        assert len(manifest["points"]) == 1
        assert (out / "point_000.csv").exists()
        assert list(manifest["failures"]) == ["1"]
        assert manifest["failures"]["1"].startswith("LaxViolation: ")
        assert "point 1 (u- = -3) failed: LaxViolation: " in capsys.readouterr().err

    def test_failed_point_leaves_the_later_points(self, tmp_path, capsys):
        # u- = -0.8 fails its tail gate at L = 20; u- = 1.5 after it is
        # written as its one-point scan writes it, under its list index
        common = ["scan", "--flux", "burgers", "--u-plus", "-1", "--xi0", "1",
                  "--L", "20", "--N", "4000"]
        out, alone = tmp_path / "out", tmp_path / "alone"
        assert run([*common, "--u-minus-list", "1.0,-0.8,1.5", "--out-dir", out]) == 3
        cause = ("endpoint residuals (2.384e-02, 2.384e-02) exceed 1.0e-06 "
                 "times the jump 2.000e-01; increase L")
        assert f"point 1 (u- = -0.8) failed: TailNotResolved: {cause}\n" in (
            capsys.readouterr().err)
        assert sorted(p.name for p in out.iterdir()) == [
            "point_000.csv", "point_002.csv", "scan_manifest.json"]
        manifest = json.loads((out / "scan_manifest.json").read_text())
        assert manifest["stall_index"] == 1
        assert manifest["stall_cause"] == cause
        assert manifest["failures"] == {"1": f"TailNotResolved: {cause}"}
        assert [p["file"] for p in manifest["points"]] == [
            "point_000.csv", "point_002.csv"]
        assert run([*common, "--u-minus-list", "1.5", "--out-dir", alone]) == 0
        assert ((out / "point_002.csv").read_bytes()
                == (alone / "point_000.csv").read_bytes())

    def test_singleton_scan_matches_beta_point(self, exact_config, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(["scan", "--config", exact_config, "--N", "1000",
                    "--u-minus-list", "1.0", "--out-dir", out1]) == 0
        assert run(["beta", "--config", exact_config, "--N", "1000",
                    "--method", "coupled", "--out-dir", out2]) == 0
        scan_beta = json.loads((out1 / "scan_manifest.json").read_text())[
            "points"][0]["beta"]
        beta_entry = json.loads((out2 / "beta_manifest.json").read_text())[
            "entries"][0]["beta"]
        assert scan_beta[0] == pytest.approx(beta_entry[0], abs=1e-9)


class TestCompareCommand:
    def test_error_report(self, exact_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["compare", "--config", exact_config, "--out-dir", out]) == 0
        text = (out / "compare.csv").read_text()
        rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
        by_key = {(r[0], r[1]): float(r[2]) for r in rows}
        assert by_key[("coupled", "v")] <= 1e-6
        assert by_key[("if", "v")] <= 1e-4
        assert {q for _, q in by_key} == {"ubar", "v"}

    def test_no_exact_solution_exits_2(self, tmp_path, capsys):
        # outside a quadratic f1 with an f2 of degree <= 2
        for k, flux in enumerate([
            ["sine_transverse"],
            ["custom", "--f1-coeffs", "0,0,0.5,0.1", "--f2-coeffs", "0,0,1"],
            ["custom", "--f1-coeffs", "0,0,0.5", "--f2-coeffs", "0,0,1,0.2"],
        ]):
            out = tmp_path / str(k)
            code = run(["compare", "--flux", *flux, "--u-minus", "1.0",
                        "--u-plus", "-1.0", "--xi0", "1.0", "--out-dir", out])
            assert code == 2
            err = capsys.readouterr().err
            assert "no exact solution" in err
            assert "quadratic f1 and an f2 of degree <= 2" in err
            assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--flux", "burgers", "--u-minus", "1.5", "--u-plus", "-1", "--xi0", "0.7"],
        ["--flux", "custom", "--f1-coeffs", "0.3,-0.2,0.8",
         "--f2-coeffs", "0.1,0.4,-1.3", "--u-minus", "2", "--u-plus", "-0.5",
         "--xi0", "1.7"],
        # f2 of degree 2 written with a trailing zero
        ["--flux", "custom", "--f1-coeffs", "0,0,0.5", "--f2-coeffs", "0,0,1,0",
         "--u-minus", "1", "--u-plus", "-1", "--xi0", "1"],
    ], ids=["burgers", "custom", "custom_trailing_zero"])
    def test_quadratic_pairs_have_exact_solutions(self, args, tmp_path):
        # F/P is the constant xi0 c2 / a, so v = (xi0 c2 / a) x ubar'
        out = tmp_path / "o"
        assert run(["compare", *args, "--L", "20", "--out-dir", out]) == 0
        text = (out / "compare.csv").read_text()
        rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
        weighted = {(r[0], r[1]): float(r[3]) for r in rows}
        assert weighted[("if", "v")] <= 1e-9
        assert weighted[("coupled", "v")] <= 1e-9


class TestDeterminism:
    def test_identical_config_bit_identical_output(self, exact_config, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(["aux", "--config", exact_config, "--method", "if",
                        "--N", "400", "--out-dir", out]) == 0
            outs.append((out / "aux_if.csv").read_bytes())
        assert outs[0] == outs[1]


class TestGridColumnFormattedOnce:
    """A command formats the x column of its grid once, for all its tables."""

    @pytest.fixture()
    def formatted(self, monkeypatch):
        original = shockbeta.serialize._column_cells
        sizes = []

        def spy(x):
            sizes.append(x.size)
            return original(x)

        monkeypatch.setattr(shockbeta.serialize, "_column_cells", spy)
        return sizes

    @staticmethod
    def _x_column(path):
        rows = [line for line in path.read_text().splitlines()
                if not line.startswith("#")][1:]
        return [row.split(",", 1)[0] for row in rows]

    def test_aux_formats_x_once_for_its_four_tables(self, tmp_path, formatted):
        out = tmp_path / "aux"
        assert run(["aux", "--config", SINE_SCAN_CFG, "--N", "4000",
                    "--method", "both", "--out-dir", out]) == 0
        assert formatted == [4001]
        alone = tmp_path / "profile"
        assert run(["profile", "--config", SINE_SCAN_CFG, "--N", "4000",
                    "--out-dir", alone]) == 0
        assert formatted == [4001]  # a lone table formats its column per block
        x = self._x_column(alone / "profile.csv")
        tables = [out / f"{kind}_{m}.csv" for kind in ("profile", "aux")
                  for m in ("if", "coupled")]
        assert all(self._x_column(path) == x for path in tables)

    def test_scan_formats_x_once_for_its_points(self, tmp_path, formatted):
        out = tmp_path / "scan"
        assert run(["scan", "--config", SINE_SCAN_CFG, "--u-minus-list",
                    "1.0,1.1,1.2", "--out-dir", out]) == 0
        assert formatted == [4001]
        assert len(list(out.glob("point_*.csv"))) == 3

    def test_no_column_outlives_its_command(self, tmp_path, formatted):
        for k in range(2):
            assert run(["aux", "--config", SINE_SCAN_CFG, "--N", "4000",
                        "--out-dir", tmp_path / str(k)]) == 0
        assert formatted == [4001, 4001]


class TestOverridePrecedence:
    def test_flag_overrides_file(self, exact_config, tmp_path):
        out = tmp_path / "out"
        assert run(["profile", "--config", exact_config, "--N", "500",
                    "--out-dir", out]) == 0
        text = (out / "profile.csv").read_text()
        assert "# N = 500" in text


_NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from shockbeta.cli import main
exact, sine, out = sys.argv[1:]
codes = [
    main(["beta", "--config", exact, "--L", "20", "--out-dir", out + "/beta"]),
    main(["scan", "--config", sine, "--u-minus-list", "1.0,1.1",
          "--out-dir", out + "/scan"]),
]
loaded = sorted(name for name, mod in sys.modules.items()
                if name.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


def test_command_line_imports_no_record_machinery():
    # in a fresh interpreter: this one has loaded dataclasses for pytest
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, shockbeta.cli; print(sorted({'dataclasses', 'copy', "
         "'numpy.polynomial'} & sys.modules.keys()))"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runtime_is_numpy_only(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(EXACT_CASE_CFG),
         str(SINE_SCAN_CFG), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0], "scipy_modules": []}
    assert (tmp_path / "beta" / "beta_table.csv").exists()
    assert len(json.loads((tmp_path / "scan" / "scan_manifest.json").read_text())
               ["points"]) == 2
