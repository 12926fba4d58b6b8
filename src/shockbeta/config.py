"""Run configuration: key = value file, flag overrides, model construction.

The file format is flat ``key = value`` lines; ``#`` starts a comment.  Lists
are comma-separated.  Keys:

    flux          burgers | quadratic_transverse | sine_transverse | custom
    sine_freq     frequency of the sine transverse flux (default 4*pi)
    f1_coeffs     ascending polynomial coefficients (custom flux only)
    f2_coeffs     ascending polynomial coefficients (custom flux only)
    u_minus       left end state (required)
    u_plus        right end state (required)
    xi0           transverse wavenumber of the neutral frequency (required)
    tau0          explicit time-frequency override (must be a neutral zero)
    L             truncation half-width; a comma list for beta studies
    N             interval count of the output grid (default 4000)
    method        if | coupled | both (default both)
    quadrature    trapezoid | simpson (default trapezoid)
    out_dir       output directory (default .)
    u_minus_list  continuation values of u_minus (scan command)
    tol           collocation residual tolerance (default 1e-8)
    tail_tol      profile endpoint gate (default 1e-6; beta: 1e-3)
    decay_tol     correction tail gate (default off; beta: 1e-2)
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .auxiliary import AuxMethod
from .beta import BetaQuadrature
from .errors import ValidationError
from .model import (
    FluxModel,
    NeutralFrequency,
    ShockConfig,
    check_neutral,
    make_flux,
    neutral_zero,
    normalize_to_standing,
    rankine_hugoniot_speed,
)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


@dataclass
class RunConfig:
    flux: str = "quadratic_transverse"
    sine_freq: float | None = None
    f1_coeffs: tuple[float, ...] | None = None
    f2_coeffs: tuple[float, ...] | None = None
    u_minus: float | None = None
    u_plus: float | None = None
    xi0: float | None = None
    tau0: float | None = None
    L: tuple[float, ...] = (20.0,)
    N: int = 4000
    method: str = "both"
    quadrature: str = "trapezoid"
    out_dir: str = "."
    u_minus_list: tuple[float, ...] | None = None
    tol: float = 1e-8
    tail_tol: float | None = None
    decay_tol: float | None = None

    @property
    def L_single(self) -> float:
        return self.L[0]

    def methods(self) -> list[AuxMethod]:
        if self.method == "both":
            return [AuxMethod.INTEGRATING_FACTOR, AuxMethod.COUPLED]
        try:
            return [AuxMethod(self.method)]
        except ValueError:
            raise ValidationError(
                f"field 'method': expected if | coupled | both, got {self.method!r}"
            ) from None

    def quad(self) -> BetaQuadrature:
        try:
            return BetaQuadrature(self.quadrature)
        except ValueError:
            raise ValidationError(
                f"field 'quadrature': expected trapezoid | simpson, "
                f"got {self.quadrature!r}"
            ) from None


_PARSERS = {
    "flux": str,
    "sine_freq": float,
    "f1_coeffs": _parse_float_list,
    "f2_coeffs": _parse_float_list,
    "u_minus": float,
    "u_plus": float,
    "xi0": float,
    "tau0": float,
    "L": _parse_float_list,
    "N": int,
    "method": str,
    "quadrature": str,
    "out_dir": str,
    "u_minus_list": _parse_float_list,
    "tol": float,
    "tail_tol": float,
    "decay_tol": float,
}
assert set(_PARSERS) == {f.name for f in fields(RunConfig)}


def _parse_field(key: str, text: str, where: str = ""):
    """The one parse path of file and flag values."""
    try:
        return _PARSERS[key](text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}field '{key}': {exc}") from exc


def parse_config_file(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a UTF-8 text file ({exc.reason})") from exc
    rc = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _PARSERS:
            raise ValidationError(f"{path}:{lineno}: unknown config key '{key}'")
        if value == "":
            continue
        setattr(rc, key, _parse_field(key, value, f"{path}:{lineno}: "))
    return rc


def apply_overrides(rc: RunConfig, overrides: dict) -> RunConfig:
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _PARSERS:
            raise ValidationError(f"unknown override '{key}'")
        if isinstance(value, str):
            value = _parse_field(key, value)
        setattr(rc, key, value)
    return rc


def build_model(rc: RunConfig) -> tuple[FluxModel, ShockConfig, NeutralFrequency]:
    """Construct and validate the flux, shock, and neutral frequency."""
    for name in ("u_minus", "u_plus", "xi0"):
        if getattr(rc, name) is None:
            raise ValidationError(f"field '{name}': required but not set")
    flux = make_flux(
        rc.flux, sine_freq=rc.sine_freq,
        f1_coeffs=rc.f1_coeffs, f2_coeffs=rc.f2_coeffs,
    )
    s = rankine_hugoniot_speed(flux, rc.u_minus, rc.u_plus)
    cfg = normalize_to_standing(flux, rc.u_minus, rc.u_plus, s)
    if rc.tau0 is not None:
        freq = NeutralFrequency(tau0=rc.tau0, xi0=rc.xi0)
        try:
            check_neutral(cfg, flux, freq)
        except ValidationError:
            raise ValidationError(
                f"field 'tau0': frequency ({rc.tau0}, {rc.xi0}) is not a "
                f"neutral zero of the determinant"
            ) from None
    else:
        freq = neutral_zero(cfg, flux, rc.xi0)
    return flux, cfg, freq
