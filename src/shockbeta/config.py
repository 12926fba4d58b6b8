"""Run configuration: key = value file, flag overrides, model construction.

The file format is flat ``key = value`` lines; ``#`` starts a comment.  Lists
are comma-separated.  Numbers must be finite, lists non-empty, and ``method``
and ``quadrature`` one of their choices: every value is checked when read, so
a bad one in a file names its line.  The keys describe the problem only; every
acceptance threshold is a constant of the module that applies it.

A key is declared once, as a :class:`RunConfig` field with its default, its
parser and its flag help; ``PARSERS`` and the command line are read from those
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .auxiliary import AuxMethod
from .beta import BetaQuadrature
from .errors import ValidationError
from .model import FluxModel, NeutralFrequency, ShockConfig, make_flux, standing_shock


# beta is xi0^2 times a number of the shock alone.  Within the fourth roots of
# the float range, xi0^2 stays within its square roots, which leaves that
# number as many decades either way as xi0^2 takes: beta neither overflows
# nor falls to a subnormal with fewer digits.
_XI0_RANGE = (np.finfo(float).tiny ** 0.25, np.finfo(float).max ** 0.25)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def check_xi0(xi0: float) -> float:
    """``xi0``, refused unless a transverse mode whose beta ~ xi0^2 is a normal float."""
    if xi0 == 0.0:
        raise ValidationError("field 'xi0': 0 is not a transverse mode")
    if not _XI0_RANGE[0] <= abs(xi0) <= _XI0_RANGE[1]:
        raise ValidationError(
            f"field 'xi0': {xi0:g} is outside {_XI0_RANGE[0]:.3g} <= |xi0| "
            f"<= {_XI0_RANGE[1]:.3g}, where beta ~ xi0^2 is a normal float"
        )
    return xi0


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(_parse_float(t) for t in str(text).split(",") if t.strip())
    if not values:
        raise ValueError(f"expected a list of numbers, got {text!r}")
    return values


def _key(default, parse, help=None):
    """A :class:`RunConfig` field: its default, its text's parser, its flag help."""
    return field(default=default, metadata={"parse": parse, "help": help})


def _choice(default, choices: dict):
    """A key whose text is a key of ``choices``, read as its value; help lists them."""
    listed = " | ".join(choices)

    def parse(text: str):
        try:
            return choices[text]
        except KeyError:
            raise ValueError(f"expected {listed}, got {text!r}") from None

    return _key(default, parse, listed)


@dataclass
class RunConfig:
    # burgers | quadratic_transverse | sine_transverse | custom
    flux: str = _key("quadratic_transverse", str, "flux kind")
    # f2 = sin(sine_freq u), sine flux only (None: 4 pi)
    sine_freq: float | None = _key(None, _parse_float)
    # ascending polynomial coefficients, custom flux only
    f1_coeffs: tuple[float, ...] | None = _key(None, _parse_float_list)
    f2_coeffs: tuple[float, ...] | None = _key(None, _parse_float_list)
    # the end states and the transverse wavenumber of the neutral frequency:
    # required, with 1.22e-77 <= |xi0| <= 1.16e77 (check_xi0)
    u_minus: float | None = _key(None, _parse_float)
    u_plus: float | None = _key(None, _parse_float)
    xi0: float | None = _key(None, _parse_float)
    # truncation half-width; a comma list for beta studies only
    L: tuple[float, ...] = _key((20.0,), _parse_float_list,
                                "half-width; comma list for beta")
    # even interval count of the output grid
    N: int = _key(4000, _parse_int, "output grid interval count")
    method: tuple[AuxMethod, ...] = _choice(
        tuple(AuxMethod),
        {**{m.value: (m,) for m in AuxMethod}, "both": tuple(AuxMethod)})
    quadrature: BetaQuadrature = _choice(
        BetaQuadrature.TRAPEZOID, {q.value: q for q in BetaQuadrature})
    out_dir: str = _key(".", str)
    # the left states of the scan command
    u_minus_list: tuple[float, ...] | None = _key(None, _parse_float_list)

    @property
    def L_single(self) -> float:
        """The one half-width of a command that is not a ``beta`` study."""
        if len(self.L) > 1:
            raise ValidationError(
                f"field 'L': {len(self.L)} values given, but this command "
                "takes one half-width"
            )
        return self.L[0]


PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def _parse_field(key: str, text: str, where: str = ""):
    """The one parse path of file and flag values."""
    try:
        return PARSERS[key](text)
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
        if key not in PARSERS:
            raise ValidationError(f"{path}:{lineno}: unknown config key '{key}'")
        if value == "":
            continue
        setattr(rc, key, _parse_field(key, value, f"{path}:{lineno}: "))
    return rc


def apply_overrides(rc: RunConfig, overrides: dict) -> RunConfig:
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in PARSERS:
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
    check_xi0(rc.xi0)
    flux = make_flux(
        rc.flux, sine_freq=rc.sine_freq,
        f1_coeffs=rc.f1_coeffs, f2_coeffs=rc.f2_coeffs,
    )
    return flux, *standing_shock(flux, rc.u_minus, rc.u_plus, rc.xi0)
