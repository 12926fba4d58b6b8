"""CSV and JSON emission with lossless round-trips.

Every float is written with 17 significant digits, which reproduces the
double exactly on reload, so identical runs yield bit-identical files and
readers rebuild the domain objects with equality on all fields.  Metadata
travels in ``# key = value`` comment lines above the column header.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .auxiliary import AuxMethod, AuxiliarySolution
from .errors import ValidationError
from .model import FluxModel, NeutralFrequency, make_flux, normalize_to_standing
from .profile import Grid, ProfileSolution


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{float(x):.17g}"


def _flux_meta(f: FluxModel) -> dict:
    meta = {"flux_kind": f.kind.value}
    if "freq" in f.params:
        meta["sine_freq"] = fmt(f.params["freq"])
    if "f1_coeffs" in f.params:
        meta["f1_coeffs"] = ",".join(fmt(c) for c in f.params["f1_coeffs"])
        meta["f2_coeffs"] = ",".join(fmt(c) for c in f.params["f2_coeffs"])
    return meta


def _flux_from_meta(meta: dict) -> FluxModel:
    kind = meta["flux_kind"]
    sine_freq = float(meta["sine_freq"]) if "sine_freq" in meta else None
    coeffs = {}
    if "f1_coeffs" in meta:
        coeffs["f1_coeffs"] = [float(c) for c in meta["f1_coeffs"].split(",")]
        coeffs["f2_coeffs"] = [float(c) for c in meta["f2_coeffs"].split(",")]
    return make_flux(kind, sine_freq=sine_freq, **coeffs)


def _write_table(path, meta: dict, header: list[str], columns: list[np.ndarray]):
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(",".join(header))
    rows = np.column_stack(columns)
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_table(path):
    meta: dict[str, str] = {}
    header: list[str] | None = None
    data: list[list[float]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = [c.strip() for c in line.split(",")]
        else:
            data.append([float(c) for c in line.split(",")])
    if header is None:
        raise ValidationError(f"{path}: no column header found")
    arr = np.asarray(data, dtype=float)
    return meta, {name: arr[:, i] for i, name in enumerate(header)}


def _shock_meta(profile_cfg, grid: Grid, f: FluxModel, extra: dict) -> dict:
    meta = {"u_minus": fmt(profile_cfg.u_minus), "u_plus": fmt(profile_cfg.u_plus),
            "s": fmt(profile_cfg.s), "L": fmt(grid.L), "N": grid.N}
    meta.update(_flux_meta(f))
    meta.update(extra)
    return meta


def write_profile_csv(path, profile: ProfileSolution, f: FluxModel) -> None:
    meta = _shock_meta(
        profile.config, profile.grid, f,
        {"method": profile.diagnostics.get("method", "ivp"),
         "exact": fmt(profile.exact)},
    )
    _write_table(path, meta, ["x", "ubar", "ubar_prime"],
                 [profile.grid.x, profile.ubar, profile.ubar_prime])


def read_profile_csv(path) -> tuple[ProfileSolution, FluxModel]:
    meta, cols = _read_table(path)
    f = _flux_from_meta(meta)
    cfg = normalize_to_standing(
        f, float(meta["u_minus"]), float(meta["u_plus"]), float(meta["s"])
    )
    grid = Grid.make(float(meta["L"]), int(meta["N"]))
    profile = ProfileSolution(
        config=cfg, grid=grid, ubar=cols["ubar"], ubar_prime=cols["ubar_prime"],
        exact=meta.get("exact") == "true",
        diagnostics={"method": meta.get("method", "ivp")},
    )
    return profile, f


def write_aux_csv(path, aux: AuxiliarySolution, profile: ProfileSolution,
                  f: FluxModel) -> None:
    meta = _shock_meta(
        profile.config, aux.grid, f,
        {"method": aux.method.value,
         "tau0": fmt(aux.freq.tau0), "xi0": fmt(aux.freq.xi0)},
    )
    _write_table(path, meta, ["x", "w", "v"], [aux.grid.x, aux.w, aux.v])


def read_aux_csv(path) -> AuxiliarySolution:
    meta, cols = _read_table(path)
    grid = Grid.make(float(meta["L"]), int(meta["N"]))
    return AuxiliarySolution(
        grid=grid, w=cols["w"], v=cols["v"],
        method=AuxMethod(meta["method"]),
        freq=NeutralFrequency(float(meta["tau0"]), float(meta["xi0"])),
    )


def write_point_csv(path, profile: ProfileSolution, aux: AuxiliarySolution,
                    f: FluxModel) -> None:
    """Combined per-parameter-point table for continuation output."""
    meta = _shock_meta(
        profile.config, profile.grid, f,
        {"method": aux.method.value,
         "tau0": fmt(aux.freq.tau0), "xi0": fmt(aux.freq.xi0)},
    )
    _write_table(path, meta, ["x", "ubar", "ubar_prime", "w", "v"],
                 [profile.grid.x, profile.ubar, profile.ubar_prime, aux.w, aux.v])


def read_point_csv(path) -> tuple[ProfileSolution, AuxiliarySolution, FluxModel]:
    meta, cols = _read_table(path)
    f = _flux_from_meta(meta)
    cfg = normalize_to_standing(
        f, float(meta["u_minus"]), float(meta["u_plus"]), float(meta["s"])
    )
    grid = Grid.make(float(meta["L"]), int(meta["N"]))
    profile = ProfileSolution(
        config=cfg, grid=grid, ubar=cols["ubar"], ubar_prime=cols["ubar_prime"],
        exact=False, diagnostics={"method": meta.get("method", "coupled")},
    )
    aux = AuxiliarySolution(
        grid=grid, w=cols["w"], v=cols["v"],
        method=AuxMethod(meta["method"]),
        freq=NeutralFrequency(float(meta["tau0"]), float(meta["xi0"])),
    )
    return profile, aux, f


def write_beta_table_csv(path, study) -> None:
    """Summary table: one row per method, one column per half-width L."""
    lines = ["# type = beta_table"]
    header = ["method"] + [f"L={fmt(L)}" for L in study.L_values]
    lines.append(",".join(header))
    for method in study.methods:
        cells = [method.value]
        for L in study.L_values:
            r = study.results.get((method, L))
            if r is None:
                cells.append(study.failures.get((method, L), "failed").split(":")[0])
            else:
                cells.append(fmt(r.beta))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def beta_result_dict(r) -> dict:
    return {
        "beta": [r.beta.real, r.beta.imag],
        "integral": [r.integral.real, r.integral.imag],
        "delta_lambda": r.delta_lambda,
        "sign_re_beta": r.sign_re_beta,
        "L": r.L,
        "method": r.method.value,
        "quadrature": r.quadrature.value,
        "diagnostics": _plain(r.diagnostics),
    }


def _plain(obj):
    """Recursively convert numpy scalars/containers for JSON emission."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_manifest(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n")
