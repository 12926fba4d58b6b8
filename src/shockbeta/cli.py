"""Command-line front end.

Commands: profile | aux | beta | scan | compare.  Every command takes the
same options; they mirror the config-file keys and override file values.
Exit codes: 0 success, 2 invalid configuration (also an unreadable config
file, an unwritable output path or an N above the grid's interval budget),
3 solver failure (diagnostics on stderr), also of any one scan point.
Each command checks, solves, then writes: a failed check leaves no output
directory, and an unwritable output path is reported after the solves.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from . import serialize
from .auxiliary import AuxMethod
from .beta import beta_convergence_study, compute_beta, solve_pair
from .config import PARSERS, RunConfig, apply_overrides, build_model, parse_config_file
from .coupled import continuation_scan
from .coupled import solve_coupled  # noqa: F401  perfbench/tracing.py patches it here
from .errors import SolverError, ValidationError, describe
from .integrating_factor import solve_auxiliary_if  # noqa: F401  likewise
from .profile import Grid, check_resolution, exact_solution, solve_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _join_config_flags(argv: list[str]) -> list[str]:
    """Join each ``--<config key>`` flag with the token after it.

    argparse reads any token that starts with ``-`` and is not a plain
    decimal as an option, so ``--u-plus -1e0`` or ``--f1-coeffs -0.1,0,0.5``
    would lose their value.  Joined as ``--u-plus=-1e0``, every config flag
    takes the next token as its value.
    """
    flags = {"--" + key.replace("_", "-") for key in PARSERS}
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok in flags:
            value = next(tokens, None)
            if value is not None:
                tok = f"{tok}={value}"
        out.append(tok)
    return out


def _load_config(args: argparse.Namespace) -> RunConfig:
    rc = parse_config_file(args.config) if args.config else RunConfig()
    return apply_overrides(rc, {key: getattr(args, key) for key in PARSERS})


def _out_dir(rc: RunConfig) -> Path:
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solve_pairs(rc, flux, cfg, freq):
    """(method, profile, correction) for each requested method at L_single."""
    for method in rc.method:
        profile, aux, _ = solve_pair(cfg, flux, freq, method, rc.L_single, rc.N)
        yield method, profile, aux


def cmd_profile(rc: RunConfig) -> int:
    flux, cfg, _ = build_model(rc)
    ps = solve_profile(cfg, Grid.make(rc.L_single, rc.N))
    path = _out_dir(rc) / "profile.csv"
    serialize.write_profile_csv(path, ps, flux)
    print(path)
    return EXIT_OK


def cmd_aux(rc: RunConfig) -> int:
    flux, cfg, freq = build_model(rc)
    check_resolution(cfg, rc.L_single, rc.N)
    grids = serialize.GridCells()  # the routes' tables share one grid
    for method, profile, aux in _solve_pairs(rc, flux, cfg, freq):
        out = _out_dir(rc)  # each route is written once solved, before the next runs
        ppath = out / f"profile_{method.value}.csv"
        apath = out / f"aux_{method.value}.csv"
        serialize.write_profile_csv(ppath, profile, flux, grids)
        serialize.write_aux_csv(apath, aux, profile, flux, grids)
        print(ppath)
        print(apath)
    return EXIT_OK


def cmd_beta(rc: RunConfig) -> int:
    flux, cfg, freq = build_model(rc)
    study = beta_convergence_study(
        cfg, flux, freq, list(rc.L), methods=rc.method, N=rc.N,
        quadrature=rc.quadrature,
    )
    out = _out_dir(rc)
    table = out / "beta_table.csv"
    serialize.write_beta_table_csv(table, study)

    def by_entry(item):  # by method name, then L
        (method, L), _ = item
        return method.value, L

    entries = [
        serialize.beta_result_dict(r)
        for _, r in sorted(study.results.items(), key=by_entry)
    ]
    manifest = {
        "L_values": list(rc.L),
        "methods": [m.value for m in study.methods],
        "entries": entries,
        "failures": {
            f"{m.value},L={L}": describe(exc) for (m, L), exc in study.failures.items()
        },
        "sign_stable": study.sign_stable(),
    }
    serialize.write_manifest(out / "beta_manifest.json", manifest)
    print(table)
    if not study.results:
        print("all table entries failed", file=sys.stderr)
    for (method, L), exc in sorted(study.failures.items(), key=by_entry):
        print(f"entry {method.value} L={L} failed: {describe(exc)}", file=sys.stderr)
    return EXIT_OK if study.results else EXIT_SOLVER


def cmd_scan(rc: RunConfig) -> int:
    if not rc.u_minus_list:
        raise ValidationError("field 'u_minus_list': required for scan")
    if AuxMethod.COUPLED not in rc.method:
        raise ValidationError(
            "field 'method': scan solves the coupled route only, not 'if'"
        )
    # the left states are the list's; u_minus is never read
    flux, cfg0, freq0 = build_model(dataclasses.replace(rc, u_minus=rc.u_minus_list[0]))
    points = continuation_scan(
        cfg0, flux, rc.xi0, list(rc.u_minus_list), rc.L_single, rc.N, freq0=freq0,
    )
    failures = {k: pt for k, pt in enumerate(points) if isinstance(pt, Exception)}
    first = min(failures, default=None)
    for k, exc in failures.items():
        print(f"point {k} (u- = {rc.u_minus_list[k]:g}) failed: {describe(exc)}",
              file=sys.stderr)

    out = _out_dir(rc)
    grids = serialize.GridCells()  # the points share one grid
    manifest_points = []
    for k, pt in enumerate(points):
        if k in failures:
            continue
        r = compute_beta(flux, pt.profile, pt.aux, rc.quadrature)
        path = out / f"point_{k:03d}.csv"
        serialize.write_point_csv(path, pt.profile, pt.aux, flux, grids)
        manifest_points.append(
            {
                "file": path.name,
                "u_minus": pt.config.u_minus,
                "u_plus": pt.config.u_plus,
                "s": pt.config.s,
                "tau0": pt.freq.tau0,
                "xi0": pt.freq.xi0,
                **{key: pt.aux.diagnostics[key] for key in (  # the solve's record
                    "newton_iters", "residual_norm", "mesh_size", "mesh_sweeps",
                    "newton_per_sweep")},
                "beta": [r.beta, 0.0],
                "sign_re_beta": r.sign_re_beta,
                "aux_tail": r.diagnostics["aux_tail"],
            }
        )
    manifest = {
        "L": rc.L_single,
        "N": rc.N,
        "xi0": rc.xi0,
        "u_minus_list": list(rc.u_minus_list),
        "points": manifest_points,
        "stall_index": first,
        "stall_cause": None if first is None else str(failures[first]),
    }
    if failures:  # only then, so a clean scan's manifest is unchanged
        manifest["failures"] = {str(k): describe(exc) for k, exc in failures.items()}
    serialize.write_manifest(out / "scan_manifest.json", manifest)
    print(out / "scan_manifest.json")
    return EXIT_SOLVER if failures else EXIT_OK


def cmd_compare(rc: RunConfig) -> int:
    flux, cfg, freq = build_model(rc)
    check_resolution(cfg, rc.L_single, rc.N)
    grid = Grid.make(rc.L_single, rc.N)
    u_exact, v_exact = exact_solution(flux, cfg, freq, grid.x)
    h = grid.h

    rows = []
    for method, profile, aux in _solve_pairs(rc, flux, cfg, freq):
        for name, num, ref in (
            ("ubar", profile.ubar, u_exact),
            ("v", aux.v, v_exact),
        ):
            e2 = float(np.sqrt(np.sum((num - ref) ** 2)))
            rows.append((method.value, name, e2, np.sqrt(h) * e2))

    path = _out_dir(rc) / "compare.csv"
    lines = ["# type = compare", f"# L = {serialize.fmt(grid.L)}",
             f"# N = {grid.N}", "method,quantity,norm2,norm2_weighted"]
    for method, name, e2, e2w in rows:
        lines.append(f"{method},{name},{serialize.fmt(e2)},{serialize.fmt(e2w)}")
    path.write_text("\n".join(lines) + "\n")
    for method, name, e2, e2w in rows:
        print(f"{method:8s} |{name:5s}- exact|_2 = {e2:.6e}   (h-weighted {e2w:.6e})")
    print(path)
    return EXIT_OK


COMMANDS = {
    "profile": ("compute and export the viscous profile", cmd_profile),
    "aux": ("compute the correction v", cmd_aux),
    "beta": ("stability coefficient over a list of L", cmd_beta),
    "scan": ("coupled beta at each u_minus of a list", cmd_scan),
    "compare": ("error norms against the exact solution", cmd_compare),
}


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command, then ``--config`` and one flag per config key.

    Every command takes the same flags (``_`` in a key is spelled ``-``).
    The help width is read once, as the value argparse computes for each help
    formatter it builds (one per flag otherwise).
    """
    width = shutil.get_terminal_size().columns - 2
    parser = argparse.ArgumentParser(
        prog="shockbeta",
        description=(
            "Refined stability coefficient of planar viscous shock profiles\n"
            "for scalar conservation laws in two space dimensions."
        ),
        epilog="commands:\n" + "".join(
            f"  {name:9s} {help_text}\n" for name, (help_text, _) in COMMANDS.items()
        ),
        formatter_class=functools.partial(argparse.RawDescriptionHelpFormatter,
                                          width=width),
    )
    parser.add_argument("command", choices=COMMANDS, help="the command to run")
    parser.add_argument("--config", help="run-configuration file (key = value lines)")
    for field in dataclasses.fields(RunConfig):
        parser.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                            help=field.metadata["help"])
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A command's warning as one line, without the package file that raised it."""
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_config_flags(argv))
    _, func = COMMANDS[args.command]
    saved = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        rc = _load_config(args)
        return func(rc)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {describe(exc)}", file=sys.stderr)
        return EXIT_SOLVER
    finally:
        warnings.formatwarning = saved


if __name__ == "__main__":
    sys.exit(main())
