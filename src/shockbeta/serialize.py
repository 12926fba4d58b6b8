"""CSV and JSON emission with lossless round-trips.

Every float is written as ``%.17g``, which reproduces the double exactly on
reload, so identical runs yield bit-identical files and readers rebuild the
domain objects with equality on all fields.  Metadata travels in
``# key = value`` comment lines above the column header.  A reader refuses a
table whose header is not the one its writer writes, whose ``x`` column is
not the grid its metadata names, or whose metadata holds a value the command
line refuses (a non-finite number, a stray flux key, an inadmissible xi0 or
shock, a tau0 that is not the neutral zero of the table's shock).

Table cells are formatted by a numpy kernel that writes the bytes of
``'%.17g' % x`` for a block of cells at once (:func:`_write_table`).  A
command that writes several tables on one grid (``aux``, ``scan``) formats
the grid's x column once, into records that each table copies
(:class:`GridCells`).  A
cell's 17 significant digits are the integer nearest y = |x| 10^(16 - e),
e the decimal exponent from ``log10``.  y is formed in double-double
arithmetic, by Dekker's exact two-product (Numer. Math. 18, 1971; numpy has
no fused multiply-add) of |x| with a (hi, lo) pair for 10^(16 - e): the
fixed-precision digit generation of Ryu (Adams, PLDI 2018), with a
double-double in place of its wide integers.  y is then known to within
4e-15, so its nearest integer is certain when its fraction lies farther
than 1e-9 from 1/2.  Such a cell is laid out in a 32-byte record: its
digits go in once through a 4-digit lookup table, three word masks pick its
``%g`` layout (sign, ``0.000`` prefix, dot, ``e+dd`` exponent, trailing
zeros stripped), and the NUL bytes it leaves unused are dropped; zeros are
laid out the same way.  Every other cell is formatted by ``%`` itself: nan,
inf, magnitudes outside [1e-280, 1e280), exact ties and values at a decade
edge.  Tables of real solutions hold next to none.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .auxiliary import AuxMethod, AuxiliarySolution
from .config import _parse_field, _parse_float, check_xi0
from .errors import ValidationError
from .model import (
    FluxKind, FluxModel, NeutralFrequency, ShockConfig, check_neutral, make_flux,
    normalize_to_standing,
)
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
    if f.sine_freq is not None:
        meta["sine_freq"] = fmt(f.sine_freq)
    if f.kind is FluxKind.CUSTOM:  # a built-in flux is its kind alone
        meta["f1_coeffs"] = ",".join(fmt(c) for c in f.f1_coeffs)
        meta["f2_coeffs"] = ",".join(fmt(c) for c in f.f2_coeffs)
    return meta


def _flux_from_meta(meta: _Meta) -> FluxModel:
    """The flux of every flux line the table carries; make_flux refuses strays."""
    params = {key: _parse_field(key, meta[key], f"{meta.path}: ")
              for key in ("sine_freq", "f1_coeffs", "f2_coeffs") if key in meta}
    return meta.checked(make_flux, meta["flux_kind"], **params)


# Cells formatted per block: bounds the kernel's temporaries, the 32-byte
# records among them, at about 0.25 kB per cell whatever the table's length.
_BLOCK_CELLS = 16384

# A cell is certified when the fraction of its scaled value lies farther than
# this from 1/2; the value is known to within 4e-15 (see _decimal17).
_TIE_MARGIN = 1e-9

# Magnitudes formatted by the kernel: inside, 10^(16 - e) and the products of
# Dekker's split neither overflow nor lose bits to underflow.
_KERNEL_RANGE = (1e-280, 1e280)
_E_MIN, _E_MAX = -281, 280  # floor(log10|x|) over that range, with rounding
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


class _KernelTables(NamedTuple):
    power_hi: np.ndarray  # by e - _E_MIN: 10^(16 - e) ~ power_hi + power_lo
    power_lo: np.ndarray
    hi_hi: np.ndarray  # Dekker's split of power_hi: halves of 26 bits
    hi_lo: np.ndarray
    # by e - _E_MIN, then again for the last cell of a row:
    suffix: np.ndarray  # word 3: b"e+dd," or b"," (b"\n" ending a row)
    row: np.ndarray  # 36 times the layout class
    quad: np.ndarray  # by 4-digit group g: b"dddd" as uint64
    sig: np.ndarray  # by (group i, g): 2 (4i + 1 + digits to g's last nonzero); 2 for 0
    masks: np.ndarray  # by (word, lo/hi/fixed, 36 class + 2 sig + sign)


@functools.cache
def _kernel_tables() -> _KernelTables:
    """The kernel's lookup tables, built on first use and read-only.

    power_hi is the double nearest 10^(16 - e) and power_lo the double
    nearest the remainder, so their sum is within 2^-106 10^(16 - e); both
    come from exact integer arithmetic (int -> float and int / int round
    correctly).
    """
    his, los = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e <= 16:
            power = 10 ** (16 - e)
            hi = float(power)
            lo = float(power - int(hi))
        else:
            power = 10 ** (e - 16)
            hi = 1 / power
            num, den = hi.as_integer_ratio()
            lo = (den - num * power) / (den * power)
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)

    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed_point = (-4 <= e) & (e <= 16)
    suffix = b"".join((sep if fp else b"e%+03d%s" % (v, sep)).ljust(8, b"\0")
                      for sep in (b",", b"\n")
                      for v, fp in zip(e.tolist(), fixed_point))
    # the layout class: 0-20 for fixed notation with exponent class - 4; 21
    # and 22 for exponential notation with 2 and 3 exponent digits
    layout = np.where(fixed_point, e + 4, np.where(np.abs(e) < 100, 21, 22))

    g = np.arange(10000)
    quad = (g[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    trailing = sum((g % d == 0).astype(int) for d in (10, 100, 1000))
    sig = [np.where(g == 0, 2, 2 * (4 * i + 5 - trailing)) for i in range(4)]

    # Bytes 0-23 by (class, sig, sign): those taken from the digits at 6-22
    # (lo), from the digits at 7-23 (hi), and those written whatever the
    # digits (fixed: the prefix and the dot).
    picks = np.zeros((3, 23, 18, 2, 24), np.uint8)
    lo, hi_, fixed = picks
    for cls in range(23):
        x_exp = cls - 4
        n_int = 0 if cls < 4 else 1 if cls > 20 else x_exp + 1
        for s in range(1, 18):
            if n_int:  # ddd.ddd, d.ddde+XX
                dot = 6 + n_int
                end = 7 + s if s > n_int else dot
                fixed[cls, s, :, dot] = ord(".") * (end > dot)
                fixed[cls, s, 1, 5] = ord("-")
            else:  # 0.000ddd: the dot is in the prefix
                dot = end = 6 + s
                for sign in (0, 1):
                    prefix = b"-0.000"[1 - sign:2 - x_exp]
                    fixed[cls, s, sign, 6 - len(prefix):6] = list(prefix)
            lo[cls, s, :, 6:dot] = 0xFF
            hi_[cls, s, :, dot + 1:end] = 0xFF
    masks = picks.reshape(3, -1, 24).view(np.uint64).transpose(2, 0, 1)
    tables = _KernelTables(
        hi, np.array(los), hi_hi, hi - hi_hi, np.frombuffer(suffix, np.uint64),
        np.tile(36 * layout, 2), quad.view(np.uint32).ravel().astype(np.uint64),
        np.array(sig), np.ascontiguousarray(masks),
    )
    for t in tables:
        t.flags.writeable = False
    return tables


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each ``x``, and where they are exact.

    Returns (D, k, fast).  Where ``fast`` and x is not 0, D is the integer in
    [1e16, 1e17) that ``'%.17g' % x`` writes, with %e exponent e = k + _E_MIN.
    Zeros are fast with D = 0 and e = 0.  Elsewhere D = 0, e = 0 and the cell
    is left to ``%``: nan, inf, magnitudes outside ``_KERNEL_RANGE``, and the
    cells the bound below cannot certify.

    D rounds y = |x| 10^(16 - e), with e = floor(log10|x|), formed as p + err:
    p = fl(|x| power_hi), and err the exact remainder of Dekker's product plus
    fl(|x| power_lo).  Three errors remain for y < 1e17: the table's, at most
    1e17 2^-106 < 1.3e-15; fl(|x| power_lo), of size at most 11, is off by at
    most 2^-50 < 9e-16; err, at most 19, by at most 2^-49 < 1.8e-15.  p + err
    is then split exactly into an integer (p >= 2^53 is one) and a fraction
    f in [0, 1), off by less than 4e-15 in all.  Rounding to the nearest
    integer is exact unless f lies that close to 1/2, so a cell is certified
    only when |f - 1/2| > _TIE_MARGIN; exact ties, rounded half-even by ``%``,
    fall back too.  So does a y whose integer part lies outside [1e16, 1e17),
    where e was misestimated, and a y that rounds up to 1e17: such a y lies
    within 5e-18 relative of 10^(e+1), where a log10 off by an ulp gives e.
    """
    t = _kernel_tables()
    a = np.abs(x)
    fast = (a >= _KERNEL_RANGE[0]) & (a < _KERNEL_RANGE[1])
    a[~fast] = 1.0  # keeps log10 and the products finite
    k = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    hi, b_hi, b_lo = t.power_hi[k], t.hi_hi[k], t.hi_lo[k]
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    err += a * t.power_lo[k]
    y_hi = p + err
    y_lo = err - (y_hi - p)
    whole = np.floor(y_lo)
    frac = y_lo - whole
    D = y_hi.astype(np.int64) + whole.astype(np.int64)
    fast &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (D >= 10**16)
    D += frac > 0.5
    fast &= D < 10**17
    D[~fast] = 0
    k[~fast] = -_E_MIN
    fast |= x == 0.0
    return D, k, fast


def _fill_records(x: np.ndarray, rec: np.ndarray, ends_row: bool) -> None:
    """Lay out ``'%.17g' % c`` and its separator for each cell c of ``x``.

    ``x`` is a (columns, rows) block of cells and ``rec`` their (columns,
    rows, 4) uint64 records, one per cell, a view into the table's records;
    when ``ends_row``, ``x[-1]`` is each row's last column.  The 17 digits
    are written once, at bytes 7-23, and read again one byte lower: the
    digits before the dot come from the lower copy and those after it from
    the upper one, which frees the byte between them for the dot.  Three
    masks by (layout class, significant digits, sign) pick each word's bytes
    from the two copies and the fixed ones, and so cut the body to length.
    """
    t = _kernel_tables()
    D, k, fast = _decimal17(x)
    if ends_row:
        k[-1] += _E_MAX + 1 - _E_MIN
    top = D // 10**8
    groups = [top // 10**8]
    for part in (top - groups[0] * 10**8, D - top * 10**8):
        g = part // 10**4
        groups += [g, part - g * 10**4]
    layout = np.maximum(np.maximum(t.sig[0][groups[1]], t.sig[1][groups[2]]),
                        np.maximum(t.sig[2][groups[3]], t.sig[3][groups[4]]))
    layout += t.row[k]
    layout += np.signbit(x)
    up = [t.quad[groups[0]] << 32]  # the lead digit at byte 7
    for i in (1, 3):
        up.append(t.quad[groups[i]] | t.quad[groups[i + 1]] << 32)
    up.append(0)
    for w, masks in enumerate(t.masks):
        lo, hi, fixed = (m[layout] for m in masks)
        down = up[w] >> 8 | up[w + 1] << 56
        np.bitwise_or(down & lo | up[w] & hi, fixed, out=rec[..., w])
    rec[..., 3] = t.suffix[k]
    slow = np.nonzero(~fast)
    if slow[0].size:  # the text in bytes 0-23, the separator at 24
        texts = b"".join((_FLOAT % v).encode().ljust(24, b"\0")
                         for v in x[slow].tolist())
        rec[slow + (slice(0, 3),)] = np.frombuffer(texts, np.uint64).reshape(-1, 3)


def _column_cells(x: np.ndarray) -> np.ndarray:
    """The (x.size, 4) records of ``x`` as a table's first column, of several.

    :func:`_write_table` copies them into each table that starts with ``x``.
    """
    rec = np.empty((1, x.size, 4), np.uint64)
    for start in range(0, x.size, _BLOCK_CELLS):
        stop = start + _BLOCK_CELLS
        _fill_records(x[None, start:stop], rec[:, start:stop], ends_row=False)
    return rec[0]


class GridCells(dict):
    """The records of each grid's x column, made on first use (``grids[grid]``).

    A command that writes several tables on one grid passes one map to
    their writers, so that the column is formatted once: a grid hashes by
    (L, N), which fix its abscissae.  A map lives as long as its command.
    """

    def __missing__(self, grid: Grid) -> np.ndarray:
        cells = self[grid] = _column_cells(grid.x)
        return cells


def _write_table(path, meta: dict, header: list[str], columns: list[np.ndarray],
                 x_cells: np.ndarray | None = None):
    """Write ``columns`` to ``path`` as CSV rows of ``%.17g`` cells.

    Every column must be real and one-dimensional with a common length: the
    rows would otherwise be ragged, and a float conversion would silently
    drop imaginary parts.  ``x_cells``, if given, are the records of
    ``columns[0]`` (from :class:`GridCells`), copied into each block in
    place of formatting that column again.  The other cells are formatted
    by :func:`_fill_records`, ``_BLOCK_CELLS`` at a time, byte for byte as
    ``'%.17g' % x`` would, each in a 32-byte record of fixed fields: the
    prefix, the sign and any ``0.000``, in bytes 0-5; the body, the digits
    and the dot after the integer part, from byte 6; the suffix, the
    exponent and the separator, from byte 24.  Unused bytes are NUL, and a
    block drops them all at once with ``bytes.translate``.  The kernel
    certifies a cell when the rounding to 17 digits is decided by a margin
    of ``_TIE_MARGIN`` against an error below 4e-15 (:func:`_decimal17`),
    and lays out zeros itself.  nan, inf, magnitudes outside
    ``_KERNEL_RANGE`` (subnormals among them), exact ties and values at a
    decade edge are formatted one by one with ``%``.
    """
    if any(np.iscomplexobj(c) for c in columns):
        raise ValueError(f"{path}: complex table column")
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError(f"{path}: table columns must be 1-D of one length, "
                         f"got shapes {[c.shape for c in columns]}")
    if x_cells is not None and (len(columns) < 2 or len(x_cells) != len(columns[0])):
        raise ValueError(f"{path}: x_cells are not the first of several columns")
    with open(path, "wb") as fh:
        fh.write("".join(f"# {k} = {v}\n" for k, v in meta.items()).encode())
        fh.write((",".join(header) + "\n").encode())
        for block in _csv_rows(columns, x_cells):
            fh.write(block)


def _csv_rows(columns: list[np.ndarray], x_cells: np.ndarray | None = None):
    """Yield the CSV bytes of the rows of ``columns``, a block at a time.

    A block holds about ``_BLOCK_CELLS`` cells to format: those of every
    column, or of all but the first when its records ``x_cells`` are given.
    """
    n_rows, n_cols = len(columns[0]), len(columns)
    fresh = columns if x_cells is None else columns[1:]
    rows = max(1, _BLOCK_CELLS // len(fresh))
    rec = np.empty((min(n_rows, rows), n_cols, 4), np.uint64)
    for start in range(0, n_rows, rows):
        stop = min(start + rows, n_rows)
        block = rec[:stop - start]
        if x_cells is not None:
            block[:, 0] = x_cells[start:stop]
        cells = np.stack([c[start:stop] for c in fresh])
        _fill_records(cells, block.transpose(1, 0, 2)[n_cols - len(fresh):],
                      ends_row=True)
        yield block.tobytes().translate(None, b"\0")


class _Meta(dict):
    """Metadata of the table at ``path``; a key it lacks is a ValidationError."""

    def __missing__(self, key):
        raise ValidationError(f"{self.path}: no '# {key} = ...' metadata line")

    def parse(self, key: str, parser=_parse_float, what: str = "a finite number"):
        """``parser`` of the value of ``key``; a refused value is a ValidationError."""
        value = self[key]
        try:
            return parser(value)
        except ValueError as exc:
            raise ValidationError(
                f"{self.path}: '# {key} = {value}' is not {what}"
            ) from exc

    def checked(self, build, *args, **kwargs):
        """``build(*args, **kwargs)``, its ValidationError prefixed with the path."""
        try:
            return build(*args, **kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{self.path}: {exc}") from exc


def _read_table(path, columns: list[str]
                ) -> tuple[_Meta, dict, Grid, ShockConfig, FluxModel]:
    """Metadata, columns by name, grid, shock and flux of a table.

    The header must be ``columns``, every data row must hold one number per
    column, and the ``x`` column must be bit-equal to the abscissae of the
    (L, N) grid that the metadata names.
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
    f = _flux_from_meta(meta)
    cfg = meta.checked(normalize_to_standing, f, meta.parse("u_minus"),
                       meta.parse("u_plus"), meta.parse("s"))
    return meta, cols, grid, cfg, f


def _shock_meta(profile_cfg, grid: Grid, f: FluxModel, extra: dict) -> dict:
    meta = {"u_minus": fmt(profile_cfg.u_minus), "u_plus": fmt(profile_cfg.u_plus),
            "s": fmt(profile_cfg.s), "L": fmt(grid.L), "N": grid.N}
    meta.update(_flux_meta(f))
    meta.update(extra)
    return meta


def _grid_cells(grids: GridCells | None, grid: Grid) -> np.ndarray | None:
    return None if grids is None else grids[grid]


def write_profile_csv(path, profile: ProfileSolution, f: FluxModel,
                      grids: GridCells | None = None) -> None:
    meta = _shock_meta(
        profile.config, profile.grid, f,
        {"method": profile.diagnostics.get("method", "ivp"),
         "exact": fmt(profile.exact)},
    )
    _write_table(path, meta, _PROFILE_COLUMNS,
                 [profile.grid.x, profile.ubar, profile.ubar_prime],
                 _grid_cells(grids, profile.grid))


def _profile_from(meta: _Meta, cols: dict, grid: Grid, cfg: ShockConfig,
                  f: FluxModel, method: str) -> tuple[ProfileSolution, FluxModel]:
    """Profile and flux of a table with ``ubar``/``ubar_prime`` columns."""
    return ProfileSolution(
        config=cfg, grid=grid, ubar=cols["ubar"], ubar_prime=cols["ubar_prime"],
        exact=meta.get("exact") == "true",
        diagnostics={"method": meta.get("method", method)},
    ), f


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
                  f: FluxModel, grids: GridCells | None = None) -> None:
    _write_table(path, _aux_meta(profile, aux, f), _AUX_COLUMNS,
                 [aux.grid.x, aux.v], _grid_cells(grids, aux.grid))


def _aux_from(meta: _Meta, cols: dict, grid: Grid, cfg: ShockConfig,
              f: FluxModel) -> AuxiliarySolution:
    """Correction of a table with a ``v`` column, at a neutral zero of its shock."""
    freq = NeutralFrequency(meta.parse("tau0"),
                            meta.checked(check_xi0, meta.parse("xi0")))
    meta.checked(check_neutral, cfg, f, freq)
    return AuxiliarySolution(
        grid=grid, v=cols["v"], freq=freq,
        method=meta.parse("method", AuxMethod,
                          f"one of {[m.value for m in AuxMethod]}"),
    )


def read_aux_csv(path) -> AuxiliarySolution:
    return _aux_from(*_read_table(path, _AUX_COLUMNS))


def write_point_csv(path, profile: ProfileSolution, aux: AuxiliarySolution,
                    f: FluxModel, grids: GridCells | None = None) -> None:
    """One scan point's table: x, ubar, ubar_prime and v."""
    _write_table(path, _aux_meta(profile, aux, f), _POINT_COLUMNS,
                 [profile.grid.x, profile.ubar, profile.ubar_prime, aux.v],
                 _grid_cells(grids, profile.grid))


def read_point_csv(path) -> tuple[ProfileSolution, AuxiliarySolution, FluxModel]:
    table = _read_table(path, _POINT_COLUMNS)
    profile, f = _profile_from(*table, "coupled")
    return profile, _aux_from(*table), f


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
                cells.append(type(study.failures[(method, L)]).__name__)
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
        "diagnostics": r.diagnostics,
    }


def _json_default(obj):
    """A numpy scalar or array as its Python value, for ``json.dumps``."""
    if isinstance(obj, (np.floating, np.integer, np.bool_, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_manifest(path, payload: dict) -> None:
    """``payload`` as indented JSON with sorted keys, in one pass.

    ``json.dumps`` walks the payload once; its ``default`` hook
    (:func:`_json_default`) turns each numpy scalar or array it meets into
    its Python value.  A numpy float is a Python float, written with the
    same repr.
    """
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")
