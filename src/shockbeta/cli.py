"""Command-line front end.

Subcommands: profile | aux | beta | scan | compare.  Options mirror the
config-file keys and override file values.  Exit codes: 0 success, 2 invalid
configuration (also an unreadable config file, an unwritable output path or
a grid too large to allocate), 3 solver failure (diagnostics on stderr).
Each command checks, solves, then writes: a failed check leaves no output
directory, and an unwritable output path is reported after the solves.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .beta import beta_convergence_study, check_even_N, compute_beta, solve_pair
from .config import PARSERS, RunConfig, apply_overrides, build_model, parse_config_file
from .coupled import continuation_scan
from .coupled import solve_coupled  # noqa: F401  perfbench/tracing.py patches it here
from .errors import ContinuationStalled, SolverError, ValidationError
from .integrating_factor import solve_auxiliary_if  # noqa: F401  likewise
from .profile import Grid, check_resolution, exact_solution, solve_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


_HELP = {
    "flux": "flux kind",
    "L": "half-width; comma list for beta",
    "N": "output grid interval count",
    "method": "if | coupled | both",
    "quadrature": "trapezoid | simpson",
}


def _add_common_options(p: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per config key (``_`` spelled ``-``)."""
    p.add_argument("--config", help="run-configuration file (key = value lines)")
    for key in PARSERS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key))


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
    rc = apply_overrides(rc, {key: getattr(args, key) for key in PARSERS})
    # every command rejects a bad choice, also one it never reads
    rc.methods()
    rc.quad()
    return rc


def _out_dir(rc: RunConfig) -> Path:
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solve_pairs(rc, flux, cfg, freq):
    """(method, profile, correction) for each requested method at L_single."""
    for method in rc.methods():
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
    check_even_N(rc.N, methods=rc.methods())
    check_resolution(cfg, rc.L_single, rc.N)
    for method, profile, aux in _solve_pairs(rc, flux, cfg, freq):
        out = _out_dir(rc)  # each route is written once solved, before the next runs
        ppath = out / f"profile_{method.value}.csv"
        apath = out / f"aux_{method.value}.csv"
        serialize.write_profile_csv(ppath, profile, flux)
        serialize.write_aux_csv(apath, aux, profile, flux)
        print(ppath)
        print(apath)
    return EXIT_OK


def cmd_beta(rc: RunConfig) -> int:
    flux, cfg, freq = build_model(rc)
    study = beta_convergence_study(
        cfg, flux, freq, list(rc.L), methods=rc.methods(), N=rc.N,
        quadrature=rc.quad(),
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
            f"{m.value},L={L}": msg for (m, L), msg in study.failures.items()
        },
        "sign_stable": study.sign_stable(),
    }
    serialize.write_manifest(out / "beta_manifest.json", manifest)
    print(table)
    if not study.results:
        print("all table entries failed", file=sys.stderr)
    for (method, L), msg in sorted(study.failures.items(), key=by_entry):
        print(f"entry {method.value} L={L} failed: {msg}", file=sys.stderr)
    return EXIT_OK if study.results else EXIT_SOLVER


def cmd_scan(rc: RunConfig) -> int:
    if not rc.u_minus_list:
        raise ValidationError("field 'u_minus_list': required for scan")
    # the chain's left states are the list's; u_minus is never read
    flux, cfg0, freq0 = build_model(dataclasses.replace(rc, u_minus=rc.u_minus_list[0]))
    check_even_N(rc.N, rc.quad())
    stall = None
    try:
        points = continuation_scan(
            cfg0, flux, rc.xi0, list(rc.u_minus_list), rc.L_single, rc.N,
            freq0=freq0,
        )
    except ContinuationStalled as exc:
        points, stall = exc.results, exc
        print(exc, file=sys.stderr)

    out = _out_dir(rc)
    manifest_points = []
    for k, pt in enumerate(points):
        r = compute_beta(flux, pt.profile, pt.aux, rc.quad())
        path = out / f"point_{k:03d}.csv"
        serialize.write_point_csv(path, pt.profile, pt.aux, flux)
        manifest_points.append(
            {
                "file": path.name,
                "u_minus": pt.config.u_minus,
                "u_plus": pt.config.u_plus,
                "s": pt.config.s,
                "tau0": pt.freq.tau0,
                "xi0": pt.freq.xi0,
                "newton_iters": pt.bvp.newton_iters,
                "residual_norm": pt.bvp.residual_norm,
                "mesh_size": int(pt.bvp.mesh.size),
                "mesh_sweeps": pt.bvp.mesh_iterations,
                "newton_per_sweep": pt.bvp.newton_per_sweep,
                "beta": [r.beta, 0.0],
                "sign_re_beta": r.sign_re_beta,
                "aux_tail": pt.aux.tail_magnitudes(),
            }
        )
    manifest = {
        "L": rc.L_single,
        "N": rc.N,
        "xi0": rc.xi0,
        "u_minus_list": list(rc.u_minus_list),
        "points": manifest_points,
        "stall_index": stall.index if stall else None,
        "stall_cause": str(stall.cause) if stall else None,
    }
    serialize.write_manifest(out / "scan_manifest.json", manifest)
    print(out / "scan_manifest.json")
    return EXIT_OK if stall is None else EXIT_SOLVER


def cmd_compare(rc: RunConfig) -> int:
    flux, cfg, freq = build_model(rc)
    check_even_N(rc.N, methods=rc.methods())
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shockbeta",
        description=(
            "Refined stability coefficient of planar viscous shock profiles "
            "for scalar conservation laws in two space dimensions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func in (
        ("profile", "compute and export the viscous profile", cmd_profile),
        ("aux", "compute the correction v", cmd_aux),
        ("beta", "stability coefficient over a list of L", cmd_beta),
        ("scan", "continuation sweep over u_minus", cmd_scan),
        ("compare", "error norms against the exact solution", cmd_compare),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_options(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_config_flags(argv))
    try:
        rc = _load_config(args)
        return args.func(rc)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
