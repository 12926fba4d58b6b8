import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shockbeta.coupled
import shockbeta.model
import shockbeta.profile
from shockbeta.cli import build_parser, main
from shockbeta.config import PARSERS
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

    def test_malformed_file_value_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("u_minus = 1.0\nN = abc\n")
        self._assert_field_error(["profile", "--config", bad], "N", capsys)

    @pytest.mark.parametrize(
        "command, flag, value",
        [("scan", "--method", "bogus"), ("aux", "--quadrature", "nope"),
         ("compare", "--quadrature", "nope")],
    )
    def test_bad_choice_exits_2_where_unused(self, command, flag, value,
                                             exact_config, tmp_path, capsys):
        out = tmp_path / "o"
        self._assert_field_error(
            [command, "--config", exact_config, "--u-minus-list", "1.0",
             flag, value, "--out-dir", out], flag[2:], capsys)
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
                assert d["mesh_size"] > 401
            else:
                assert not any(k in d for k in keys)

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
    ])
    def test_odd_N_rejected_before_any_solve(self, command, extra, tmp_path,
                                             capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran before the sample-count check")

        for target in ("shockbeta.beta.solve_profile", "shockbeta.beta.solve_coupled",
                       "shockbeta.coupled.solve_coupled"):
            monkeypatch.setattr(target, no_solve)
        out = tmp_path / "o"
        code = run([*command, "--N", "4001", *extra, "--out-dir", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: field 'N': 4001 is odd")
        assert not out.exists()

    def test_odd_N_coupled_trapezoid_succeeds(self, tmp_path):
        assert run(["beta", "--config", EXACT_CASE_CFG, "--N", "4001",
                    "--method", "coupled", "--out-dir", tmp_path / "o"]) == 0

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

    def test_scan_checks_only_points_the_chain_reaches(self, tmp_path):
        # u- = -3 is inadmissible, so the chain stalls there with exit 3;
        # the check does not turn that stall into a configuration error
        out = tmp_path / "out"
        code = run(["scan", "--flux", "sine_transverse", "--u-minus", "1.0",
                    "--u-plus", "-1.0", "--xi0", "1.0", "--L", "20",
                    "--N", "800", "--u-minus-list", "1.0,-3.0,50.0",
                    "--out-dir", out])
        assert code == 3


class TestScanCommand:
    def test_sine_scan_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = run(["scan", "--flux", "sine_transverse", "--u-minus", "1.0",
                    "--u-plus", "-1.0", "--xi0", "1.0", "--L", "20",
                    "--N", "1000", "--u-minus-list", "1.0,1.1,1.2",
                    "--out-dir", out])
        assert code == 0
        manifest = json.loads((out / "scan_manifest.json").read_text())
        assert manifest["stall_index"] is None
        assert len(manifest["points"]) == 3
        for k, p in enumerate(manifest["points"]):
            assert (out / p["file"]).exists()
            assert p["sign_re_beta"] in (-1, 1)
        # speeds recomputed along the chain
        assert manifest["points"][1]["s"] == pytest.approx(0.05)

    def test_left_states_come_from_the_list(self, tmp_path):
        # scan never reads u_minus: unset, or inadmissible with u+ = -1, the
        # chain is the same and starts at the list's first value
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
        # one normalization per scan point: the run's own shock is the first
        original = shockbeta.model.normalize_to_standing
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("shockbeta")
                    and getattr(module, "normalize_to_standing", None) is original):
                monkeypatch.setattr(module, "normalize_to_standing", counted)
        assert run(["scan", "--config", SINE_SCAN_CFG,
                    "--out-dir", tmp_path / "o"]) == 0
        assert len(calls) == 6

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
    ], ids=["burgers", "custom"])
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
