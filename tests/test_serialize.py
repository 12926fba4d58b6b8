import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shockbeta import serialize
from shockbeta.auxiliary import AuxMethod
from shockbeta.beta import beta_convergence_study
from shockbeta.errors import ValidationError
from shockbeta.integrating_factor import solve_auxiliary_if
from shockbeta.model import burgers_flux, sine_transverse_flux
from shockbeta.profile import Grid, solve_profile


def test_profile_csv_round_trip(tmp_path, quad_flux, exact_cfg, profile_L20):
    path = tmp_path / "profile.csv"
    serialize.write_profile_csv(path, profile_L20, quad_flux)
    loaded, flux = serialize.read_profile_csv(path)
    assert flux.kind is quad_flux.kind
    assert loaded.config.u_minus == exact_cfg.u_minus
    assert loaded.config.u_plus == exact_cfg.u_plus
    assert loaded.config.s == exact_cfg.s
    assert loaded.grid.L == profile_L20.grid.L
    assert loaded.grid.N == profile_L20.grid.N
    assert np.array_equal(loaded.grid.x, profile_L20.grid.x)
    assert np.array_equal(loaded.ubar, profile_L20.ubar)
    assert np.array_equal(loaded.ubar_prime, profile_L20.ubar_prime)
    assert loaded.exact == profile_L20.exact


def test_aux_csv_round_trip(tmp_path, quad_flux, exact_freq, profile_L20):
    aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
    path = tmp_path / "aux.csv"
    serialize.write_aux_csv(path, aux, profile_L20, quad_flux)
    loaded = serialize.read_aux_csv(path)
    assert loaded.method is AuxMethod.INTEGRATING_FACTOR
    assert loaded.freq == exact_freq
    assert np.array_equal(loaded.v, aux.v)
    assert np.array_equal(loaded.grid.x, aux.grid.x)


def test_sine_flux_metadata_round_trip(tmp_path, exact_cfg):
    f = sine_transverse_flux(freq=7.5)
    ps = solve_profile(exact_cfg, Grid.make(15.0, 300))
    path = tmp_path / "p.csv"
    serialize.write_profile_csv(path, ps, f)
    _, flux = serialize.read_profile_csv(path)
    assert flux.sine_freq == 7.5


def test_write_is_deterministic(tmp_path, quad_flux, exact_cfg):
    paths = []
    for k in (1, 2):
        ps = solve_profile(exact_cfg, Grid.make(10.0, 200), tail_tol=1e-3)
        p = tmp_path / f"p{k}.csv"
        serialize.write_profile_csv(p, ps, quad_flux)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_point_csv_round_trip(tmp_path, quad_flux, exact_cfg, exact_freq):
    from shockbeta.coupled import solve_coupled

    res = solve_coupled(exact_cfg, quad_flux, exact_freq, 15.0, 300)
    path = tmp_path / "point.csv"
    serialize.write_point_csv(path, res.profile, res.aux, quad_flux)
    profile, aux, flux = serialize.read_point_csv(path)
    assert np.array_equal(profile.ubar, res.profile.ubar)
    assert np.array_equal(profile.ubar_prime, res.profile.ubar_prime)
    assert np.array_equal(aux.v, res.aux.v)
    assert aux.freq == res.aux.freq
    assert flux.kind is quad_flux.kind


def _write(kind, path, quad_flux, exact_freq, profile):
    """Write a ``kind`` table of the exact case; return its reader."""
    aux = solve_auxiliary_if(quad_flux, exact_freq, profile)
    if kind == "profile":
        serialize.write_profile_csv(path, profile, quad_flux)
        return serialize.read_profile_csv
    if kind == "aux":
        serialize.write_aux_csv(path, aux, profile, quad_flux)
        return serialize.read_aux_csv
    serialize.write_point_csv(path, profile, aux, quad_flux)
    return serialize.read_point_csv


def _edit_table(path, header=lambda names: names, row=lambda cells: cells,
                meta=lambda line: line):
    """Rewrite a table through ``header``, ``row`` and ``meta`` line maps."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    out = [meta(line) for line in lines[:head]]
    out.append(",".join(header(lines[head].split(","))))
    out += [",".join(row(line.split(","))) for line in lines[head + 1:]]
    path.write_text("\n".join(out) + "\n")


@pytest.mark.parametrize("kind", ["profile", "aux", "point"])
def test_renamed_column_rejected(tmp_path, quad_flux, exact_freq, profile_L20,
                                 kind):
    path = tmp_path / f"{kind}.csv"
    read = _write(kind, path, quad_flux, exact_freq, profile_L20)
    read(path)
    _edit_table(path, header=lambda names: names[:-1] + ["y"])
    with pytest.raises(ValidationError, match="column header"):
        read(path)


@pytest.mark.parametrize("kind", ["aux", "point"])
def test_w_column_rejected(tmp_path, quad_flux, exact_freq, profile_L20, kind):
    # the earlier layout, with an all-zero w column before v
    path = tmp_path / f"{kind}.csv"
    read = _write(kind, path, quad_flux, exact_freq, profile_L20)
    _edit_table(path, header=lambda names: names[:-1] + ["w", "v"],
                row=lambda cells: cells[:-1] + ["0", cells[-1]])
    with pytest.raises(ValidationError, match="column header"):
        read(path)


@pytest.mark.parametrize("key,value", [("N", "400"), ("L", "2")])
@pytest.mark.parametrize("kind", ["profile", "aux", "point"])
def test_x_off_the_named_grid_rejected(tmp_path, quad_flux, exact_freq,
                                       profile_L20, kind, key, value):
    path = tmp_path / f"{kind}.csv"
    read = _write(kind, path, quad_flux, exact_freq, profile_L20)
    _edit_table(path, meta=lambda line: f"# {key} = {value}"
                if line.startswith(f"# {key} =") else line)
    with pytest.raises(ValidationError, match="column 'x'"):
        read(path)


@pytest.mark.parametrize("kind,key", [("profile", "L"), ("aux", "L"),
                                      ("aux", "tau0"), ("point", "N")])
def test_missing_metadata_line_rejected(tmp_path, quad_flux, exact_freq,
                                        profile_L20, kind, key):
    path = tmp_path / f"{kind}.csv"
    read = _write(kind, path, quad_flux, exact_freq, profile_L20)
    _edit_table(path, meta=lambda line: "#" if line.startswith(f"# {key} =") else line)
    with pytest.raises(ValidationError) as ei:
        read(path)
    assert str(ei.value) == f"{path}: no '# {key} = ...' metadata line"


@pytest.mark.parametrize("kind,key,value", [
    ("profile", "N", "4000.5"), ("point", "N", "many"),
    ("aux", "L", "twenty"), ("point", "L", "20,"),
    ("aux", "method", "bogus"), ("point", "method", "IF"),
])
def test_unreadable_metadata_value_rejected(tmp_path, quad_flux, exact_freq,
                                            profile_L20, kind, key, value):
    what = {"N": "an integer", "L": "a finite number",
            "method": "one of ['if', 'coupled']"}[key]
    path = tmp_path / f"{kind}.csv"
    read = _write(kind, path, quad_flux, exact_freq, profile_L20)
    _edit_table(path, meta=lambda line: f"# {key} = {value}"
                if line.startswith(f"# {key} =") else line)
    with pytest.raises(ValidationError) as ei:
        read(path)
    assert str(ei.value) == f"{path}: '# {key} = {value}' is not {what}"


@pytest.mark.parametrize("key,value", [
    ("f2_coeffs", "0,0,5"), ("sine_freq", "3"), ("f1_coeffs", "0,0,1"),
])
def test_stray_flux_line_rejected_with_its_path(tmp_path, profile_L20, key, value):
    # the command line refuses a flux key the kind does not take; so does a table
    path = tmp_path / "profile.csv"
    serialize.write_profile_csv(path, profile_L20, burgers_flux())
    _edit_table(path, meta=lambda line: f"{line}\n# {key} = {value}"
                if line == "# flux_kind = burgers" else line)
    with pytest.raises(ValidationError) as ei:
        serialize.read_profile_csv(path)
    assert str(ei.value) == f"{path}: field '{key}': the burgers flux takes no {key}"


@pytest.mark.parametrize("key,value,refusal", [
    ("tau0", "inf", "is not a finite number"),
    ("xi0", "nan", "is not a finite number"),
    ("xi0", "inf", "is not a finite number"),
    ("xi0", "1e200", "field 'xi0': 1e+200 is outside"),
    ("xi0", "0", "field 'xi0': 0 is not a transverse mode"),
])
@pytest.mark.parametrize("kind", ["aux", "point"])
def test_frequency_the_command_line_refuses_rejected(tmp_path, quad_flux,
                                                     exact_freq, profile_L20,
                                                     kind, key, value, refusal):
    path = tmp_path / f"{kind}.csv"
    read = _write(kind, path, quad_flux, exact_freq, profile_L20)
    _edit_table(path, meta=lambda line: f"# {key} = {value}"
                if line.startswith(f"# {key} =") else line)
    with pytest.raises(ValidationError) as ei:
        read(path)
    assert str(ei.value).startswith(f"{path}: ") and refusal in str(ei.value)


@pytest.mark.parametrize("kind", ["aux", "point"])
def test_tau0_off_the_neutral_zero_of_the_shock_rejected(tmp_path, quad_flux,
                                                         exact_freq, profile_L20,
                                                         kind):
    # the exact case's tau0 is 0; 5 passes every number check but is not a
    # neutral zero of the table's own flux and shock
    path = tmp_path / f"{kind}.csv"
    read = _write(kind, path, quad_flux, exact_freq, profile_L20)
    assert "# tau0 = 0\n" in path.read_text()
    _edit_table(path, meta=lambda line: "# tau0 = 5" if line == "# tau0 = 0" else line)
    with pytest.raises(ValidationError) as ei:
        read(path)
    assert str(ei.value).startswith(f"{path}: (tau0, xi0) = (5.0, 1.0) is not a neutral zero")


def test_inadmissible_shock_rejected_with_its_path(tmp_path, quad_flux,
                                                   profile_L20):
    path = tmp_path / "profile.csv"
    serialize.write_profile_csv(path, profile_L20, quad_flux)
    _edit_table(path, meta=lambda line: "# s = 5" if line.startswith("# s =") else line)
    with pytest.raises(ValidationError) as ei:
        serialize.read_profile_csv(path)
    assert str(ei.value).startswith(f"{path}: s*[u] - [f1] = ")


@pytest.mark.parametrize("kind", ["profile", "aux", "point"])
def test_row_missing_a_cell_rejected(tmp_path, quad_flux, exact_freq,
                                     profile_L20, kind):
    path = tmp_path / f"{kind}.csv"
    read = _write(kind, path, quad_flux, exact_freq, profile_L20)
    _edit_table(path, row=lambda cells: cells[:-1] if cells[0] == "0" else cells)
    with pytest.raises(ValidationError, match="a data row is not") as ei:
        read(path)
    assert str(path) in str(ei.value)


def test_beta_table_layout(tmp_path, quad_flux, exact_cfg, exact_freq):
    study = beta_convergence_study(
        exact_cfg, quad_flux, exact_freq, [10.0, 20.0], N=500,
    )
    path = tmp_path / "table.csv"
    serialize.write_beta_table_csv(path, study)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["method", "L=10", "L=20"]
    assert len(lines) == 3  # header + one row per method
    # every beta cell is a plain float
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] in ("if", "coupled")
        for cell in cells[1:]:
            assert abs(float(cell) - 10.0) < 0.1


def test_failed_entry_cell_is_its_exception_class(tmp_path, quad_flux, exact_cfg,
                                                  exact_freq):
    # L = 1 fails its tail gates on both routes
    study = beta_convergence_study(
        exact_cfg, quad_flux, exact_freq, [1.0, 20.0], N=1000,
    )
    assert len(study.failures) == 2
    path = tmp_path / "table.csv"
    serialize.write_beta_table_csv(path, study)
    rows = [l.split(",") for l in path.read_text().splitlines()[2:]]
    for row, method in zip(rows, study.methods, strict=True):
        assert row[0] == method.value
        assert row[1] == type(study.failures[(method, 1.0)]).__name__
        assert float(row[2]) == study.results[(method, 20.0)].beta


def _plain_reference(obj):
    """A converted copy of the payload: numpy scalars and arrays as Python
    values, tuples as lists, keys as strings.  The reference of the manifest
    bytes."""
    if isinstance(obj, dict):
        return {str(k): _plain_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_reference(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def test_manifest_json_plain_types(tmp_path):
    payload = {
        "a": np.float64(1.5),
        "b": np.int64(3),
        "c": np.arange(3),
        "d": {"nested": np.bool_(True)},
        "e": np.array(0.1),
        "f": np.arange(6.0).reshape(2, 3) / 7.0,
        "g": (np.float64(1.0) / 3.0, 1, "x", None, (np.int64(-4), np.bool_(False))),
        "h": {"z": [np.float64(-0.0), {"y": np.arange(2.0)}], "a": {}},
    }
    path = tmp_path / "m.json"
    serialize.write_manifest(path, payload)
    loaded = json.loads(path.read_text())
    assert loaded == {"a": 1.5, "b": 3, "c": [0, 1, 2], "d": {"nested": True},
                      "e": 0.1, "f": (np.arange(6.0).reshape(2, 3) / 7.0).tolist(),
                      "g": [1.0 / 3.0, 1, "x", None, [-4, False]],
                      "h": {"z": [-0.0, {"y": [0.0, 1.0]}], "a": {}}}
    expected = json.dumps(_plain_reference(payload), indent=2, sort_keys=True) + "\n"
    assert path.read_text() == expected

    with pytest.raises(TypeError):
        serialize.write_manifest(tmp_path / "refused.json", {"a": [1, object()]})
    assert not (tmp_path / "refused.json").exists()


def test_float_formatting_is_lossless():
    vals = [0.1, 1.0 / 3.0, np.pi, 1e-17, -2.5e300, 0.0]
    for v in vals:
        assert float(serialize.fmt(v)) == v


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_float_format_is_percent_17g_and_round_trips(x):
    text = serialize.fmt(x)
    assert text == "%.17g" % x == f"{x:.17g}"
    back = float(text)
    if math.isnan(x):
        assert math.isnan(back)
    else:
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)


def _reference_table_text(meta, header, columns):
    """The row-by-row writer that ``_write_table`` replaced, kept as reference."""
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in np.column_stack(columns):
        lines.append(",".join(serialize.fmt(x) for x in row))
    return "\n".join(lines) + "\n"


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 0.1,
                      3.0, -42.0, 1.0 / 3.0])
_META = {"flux_kind": "burgers", "L": serialize.fmt(20.0), "N": 10}
_HEADER = ["x", "ubar", "ubar_prime", "w", "v"]


def _mixed_columns(n_rows):
    """Five columns of ``n_rows`` cells: the specials, rolled, among normals."""
    rng = np.random.default_rng(n_rows)
    cols = []
    for k in range(len(_HEADER)):
        col = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-8, 8, n_rows)
        col[::7] = np.resize(np.roll(_SPECIALS, k), col[::7].size)
        cols.append(col)
    return cols


def _block_rows(n_values):
    """Rows of a block that formats ``n_values`` cells a row."""
    return serialize._BLOCK_CELLS // n_values


# a block of the five columns with a shared first column
_CHUNK = _block_rows(4)


@pytest.mark.parametrize("n_rows", [0, 1, len(_SPECIALS), _CHUNK - 1, _CHUNK,
                                    _CHUNK + 1])
def test_write_table_matches_reference_writer(tmp_path, n_rows):
    columns = [np.resize(np.roll(_SPECIALS, k), n_rows) for k in range(5)]
    for cols in (columns, _mixed_columns(n_rows)):
        expected = _reference_table_text(_META, _HEADER, cols).encode()
        for x_cells in (None, serialize._column_cells(cols[0])):
            path = tmp_path / "t.csv"
            serialize._write_table(path, _META, _HEADER, cols, x_cells)
            assert path.read_bytes() == expected


@pytest.mark.parametrize("n_cols", [2, 3, 4])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_shared_first_column_at_block_boundaries(tmp_path, n_cols, offset):
    # the rows of a block when the first column's records are shared
    n_rows = _block_rows(n_cols - 1) + offset
    header = _HEADER[:n_cols]
    grid = np.resize(_SPECIALS, n_rows)
    grid[len(_SPECIALS):] = np.linspace(-20.0, 20.0, n_rows)[len(_SPECIALS):]
    cols = [grid] + _mixed_columns(n_rows)[1:n_cols]
    path = tmp_path / "t.csv"
    serialize._write_table(path, _META, header, cols, serialize._column_cells(grid))
    assert path.read_bytes() == _reference_table_text(_META, header, cols).encode()


def _assert_cells_match_percent(values):
    """The table writer writes each of ``values`` as ``'%.17g' % value``."""
    x = np.asarray(values, dtype=float)
    got = b"".join(serialize._csv_rows([x])).decode()
    expected = "".join("%.17g\n" % v for v in x.tolist())
    if got != expected:
        bad = [(v, g, e) for v, g, e in zip(x.tolist(), got.splitlines(),
                                            expected.splitlines()) if g != e]
        pytest.fail(f"{len(bad)} cells differ, first {bad[:5]}")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), max_size=40))
def test_kernel_matches_percent_on_any_floats(values):
    _assert_cells_match_percent(values)


def test_kernel_matches_percent_on_random_bit_patterns():
    bits = np.random.default_rng(20180618).integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=1_000_000,
        dtype=np.int64, endpoint=True,
    )
    _assert_cells_match_percent(bits.view(np.float64))


def _neighbours(x, width=2):
    """``x`` and the ``width`` doubles on either side of each."""
    x = np.asarray(x, dtype=float)
    out = [x]
    up, down = x, x
    for _ in range(width):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_kernel_matches_percent_on_boundaries():
    decades = np.array([float(f"1e{k}") for k in range(-330, 309)])
    switches = [9.9999999999999995e-6, 1e-5, 9.99999999999999995e-5, 1e-4,
                1e16, 1e17, 9.9999999999999999e15, 9.99999999999999999e16]
    # exact ties at the 17th digit: q / 2^m has 18 significant digits, the
    # last one a 5, when q is odd and q 5^m has 18 digits
    rng = np.random.default_rng(0)
    ties = []
    for m in range(1, 40):
        lo, hi = 10**17 // 5**m + 1, min(10**18 // 5**m, 2**53)
        if hi > 2 * lo:
            q = rng.integers(lo, hi, 200) | 1
            ties += [math.ldexp(float(v), -m) for v in q.tolist()]
    ties += [1e15 + 0.25, 1e15 + 0.75]
    halves = [math.ldexp(m, -j) for m in (1, 3, 5, 2**52 + 1)
              for j in range(1, 60, 7)]
    subnormals = np.array([5e-324, 1e-310, 2.2250738585072009e-308,
                           2.2250738585072014e-308])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.7976931348623157e308])
    values = np.concatenate([
        _neighbours(decades), _neighbours(switches, 4), ties, halves, subnormals,
        specials, np.linspace(0.0, 1.0, 10001),
    ])
    _assert_cells_match_percent(np.concatenate([values, -values]))


def _with_digits(e, s, rng):
    """A double whose ``%.17g`` has exponent e and s significant digits, or None.

    Exact ties at the 17th digit, which the kernel leaves to ``%``, are skipped.
    """
    if s <= 2:  # every candidate, largest first: a decade edge takes the fallback
        mantissas = [m for m in range(10 ** s - 1, 10 ** (s - 1) - 1, -1) if m % 10]
    else:
        mantissas = [m for m in rng.integers(10 ** (s - 1), 10 ** s, 400).tolist()
                     if m % 10]
    for m in mantissas:
        digits = str(m)
        v = float(f"{digits[0]}.{digits[1:]}e{e}")
        mantissa, exponent = ("%.16e" % v).split("e")
        tie = Decimal(v).normalize().as_tuple().digits[17:] == (5,)
        if (int(exponent) == e and len(mantissa.replace(".", "").rstrip("0")) == s
                and not tie):
            return v
    return None


def test_kernel_writes_every_record_layout():
    # every decimal exponent (the 23 %g layouts: 0.000ddd, ddd.ddd, and
    # d.ddde+XX with two and three exponent digits), every count of
    # significant digits and both signs: each prefix length, dot position,
    # body length and exponent width a record tells apart
    rng = np.random.default_rng(17)
    values, layouts, missing = [], [], set()
    for e in range(-300, 301):
        layout = e if -4 <= e <= 16 else "e+XXX" if abs(e) >= 100 else "e+XX"
        for s in range(1, 18):
            v = _with_digits(e, s, rng)
            if v is None:
                missing.add(s)
                continue
            values += [v, -v]
            layouts += [(layout, s, "+"), (layout, s, "-")]
    # no double prints as one digit at some exponents, or as two at a few
    assert missing == {1, 2}
    values = np.array(values)
    _, _, fast = serialize._decimal17(values)
    kernel = {layout for layout, f in zip(layouts, fast.tolist()) if f}
    assert len(kernel) == 23 * 17 * 2  # each laid out by the kernel, not by %
    _assert_cells_match_percent(values)


def test_ties_and_specials_take_the_fallback():
    values = np.array([1e15 + 0.25, 0.5, 5e-324, 1e300, np.nan, np.inf, 0.0, 0.1])
    _, _, fast = serialize._decimal17(values)
    assert fast.tolist() == [False, True, False, False, False, False, True, True]


def test_exact_case_columns_take_the_certified_path(quad_flux, exact_cfg,
                                                    exact_freq):
    # a kernel that silently sent every cell to ``%`` would still be exact
    profile = solve_profile(exact_cfg, Grid.make(20.0, 40000))
    aux = solve_auxiliary_if(quad_flux, exact_freq, profile)
    for col in (profile.ubar, profile.ubar_prime, aux.v):
        _, _, fast = serialize._decimal17(col)
        certified = fast & (col != 0.0)
        assert certified.mean() >= 0.99


@pytest.mark.parametrize("columns", [
    [np.zeros(3), np.zeros(2)],
    [np.zeros(3), np.zeros(3, dtype=complex)],
], ids=["ragged", "complex"])
def test_write_table_rejects_bad_columns(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        serialize._write_table(path, _META, ["a", "b"], columns)
    assert not path.exists()
