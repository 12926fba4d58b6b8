"""CSV and JSON emission with lossless round-trips.

Every float is written as ``%.17g``, which reproduces the double exactly on
reload, so identical runs yield bit-identical files and readers rebuild the
domain objects with equality on all fields.  Metadata travels in
``# key = value`` comment lines above the column header.  A reader refuses a
table whose header is not the one its writer writes, or whose ``x`` column
is not the grid its metadata names.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .auxiliary import AuxMethod, AuxiliarySolution
from .errors import ValidationError
from .model import FluxModel, NeutralFrequency, make_flux, normalize_to_standing
from .profile import Grid, ProfileSolution

# The one float format of every metadata value and table cell.
_FLOAT = "%.17g"

# Column headers, each shared by a writer and its reader.
_PROFILE_COLUMNS = ["x", "ubar", "ubar_prime"]
_AUX_COLUMNS = ["x", "v"]
_POINT_COLUMNS = ["x", "ubar", "ubar_prime", "v"]


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FLOAT % float(x)


def _flux_meta(f: FluxModel) -> dict:
    meta = {"flux_kind": f.kind.value}
    if "freq" in f.params:
        meta["sine_freq"] = fmt(f.params["freq"])
    if "f2_coeffs" in f.params:  # a custom flux
        meta["f1_coeffs"] = ",".join(fmt(c) for c in f.f1_coeffs)
        meta["f2_coeffs"] = ",".join(fmt(c) for c in f.params["f2_coeffs"])
    return meta


def _floats(value: str) -> list[float]:
    return [float(c) for c in value.split(",")]


def _flux_from_meta(meta: _Meta) -> FluxModel:
    kind = meta["flux_kind"]
    sine_freq = meta.parse("sine_freq") if "sine_freq" in meta else None
    coeffs = {}
    if "f1_coeffs" in meta:
        for key in ("f1_coeffs", "f2_coeffs"):
            coeffs[key] = meta.parse(key, _floats, "a comma list of numbers")
    return make_flux(kind, sine_freq=sine_freq, **coeffs)


def _write_table(path, meta: dict, header: list[str], columns: list[np.ndarray]):
    """Stream ``columns`` to ``path`` as CSV rows of ``%.17g`` cells.

    Every column must be real and one-dimensional with a common length: the
    rows are zipped, which would silently truncate ragged columns, and a
    float conversion would silently drop imaginary parts.
    """
    if any(np.iscomplexobj(c) for c in columns):
        raise ValueError(f"{path}: complex table column")
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError(f"{path}: table columns must be 1-D of one length, "
                         f"got shapes {[c.shape for c in columns]}")
    row = ",".join([_FLOAT] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.writelines(f"# {k} = {v}\n" for k, v in meta.items())
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


class _Meta(dict):
    """Metadata of the table at ``path``; a key it lacks is a ValidationError."""

    def __missing__(self, key):
        raise ValidationError(f"{self.path}: no '# {key} = ...' metadata line")

    def parse(self, key: str, parser=float, what: str = "a number"):
        """``parser`` of the value of ``key``; a refused value is a ValidationError."""
        value = self[key]
        try:
            return parser(value)
        except ValueError as exc:
            raise ValidationError(
                f"{self.path}: '# {key} = {value}' is not {what}"
            ) from exc


def _read_table(path, columns: list[str]) -> tuple[_Meta, dict, Grid]:
    """Metadata, columns by name and grid of a table with header ``columns``.

    Every data row must hold one number per column, and the ``x`` column must
    be bit-equal to the abscissae of the (L, N) grid that the metadata names.
    """
    meta = _Meta()
    meta.path = path
    header: list[str] | None = None
    rows: list[str] = []
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
            rows.append(line)
    if header != columns:
        raise ValidationError(f"{path}: column header {header}, expected {columns}")
    try:
        data = [[float(c) for c in row.split(",")] for row in rows]
        arr = np.asarray(data, dtype=float).reshape(len(data), len(header))
    except ValueError as exc:
        msg = f"{path}: a data row is not {len(header)} numbers"
        raise ValidationError(msg) from exc
    cols = {name: arr[:, i] for i, name in enumerate(header)}
    grid = Grid.make(meta.parse("L"), meta.parse("N", int, "an integer"))
    if not np.array_equal(cols["x"], grid.x):
        raise ValidationError(
            f"{path}: column 'x' is not the grid of L = {meta['L']}, N = {meta['N']}"
        )
    return meta, cols, grid


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
    _write_table(path, meta, _PROFILE_COLUMNS,
                 [profile.grid.x, profile.ubar, profile.ubar_prime])


def _profile_from(meta: _Meta, cols: dict, grid: Grid,
                  method: str) -> tuple[ProfileSolution, FluxModel]:
    """Profile and flux of a table with ``ubar``/``ubar_prime`` columns."""
    f = _flux_from_meta(meta)
    cfg = normalize_to_standing(
        f, meta.parse("u_minus"), meta.parse("u_plus"), meta.parse("s")
    )
    profile = ProfileSolution(
        config=cfg, grid=grid, ubar=cols["ubar"], ubar_prime=cols["ubar_prime"],
        exact=meta.get("exact") == "true",
        diagnostics={"method": meta.get("method", method)},
    )
    return profile, f


def read_profile_csv(path) -> tuple[ProfileSolution, FluxModel]:
    return _profile_from(*_read_table(path, _PROFILE_COLUMNS), "ivp")


def _aux_meta(profile: ProfileSolution, aux: AuxiliarySolution,
              f: FluxModel) -> dict:
    return _shock_meta(
        profile.config, aux.grid, f,
        {"method": aux.method.value,
         "tau0": fmt(aux.freq.tau0), "xi0": fmt(aux.freq.xi0)},
    )


def write_aux_csv(path, aux: AuxiliarySolution, profile: ProfileSolution,
                  f: FluxModel) -> None:
    _write_table(path, _aux_meta(profile, aux, f), _AUX_COLUMNS,
                 [aux.grid.x, aux.v])


def _aux_from(meta: _Meta, cols: dict, grid: Grid) -> AuxiliarySolution:
    """Correction of a table with a ``v`` column."""
    return AuxiliarySolution(
        grid=grid, v=cols["v"],
        method=meta.parse("method", AuxMethod,
                          f"one of {[m.value for m in AuxMethod]}"),
        freq=NeutralFrequency(meta.parse("tau0"), meta.parse("xi0")),
    )


def read_aux_csv(path) -> AuxiliarySolution:
    return _aux_from(*_read_table(path, _AUX_COLUMNS))


def write_point_csv(path, profile: ProfileSolution, aux: AuxiliarySolution,
                    f: FluxModel) -> None:
    """Combined per-parameter-point table for continuation output."""
    _write_table(path, _aux_meta(profile, aux, f), _POINT_COLUMNS,
                 [profile.grid.x, profile.ubar, profile.ubar_prime, aux.v])


def read_point_csv(path) -> tuple[ProfileSolution, AuxiliarySolution, FluxModel]:
    meta, cols, grid = _read_table(path, _POINT_COLUMNS)
    profile, f = _profile_from(meta, cols, grid, "coupled")
    return profile, _aux_from(meta, cols, grid), f


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
        "beta": [r.beta, 0.0],  # [real, imaginary]: beta is real
        "integral": [r.integral, 0.0],
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
