"""Flux models, shock data, and the Lopatinskii determinant.

A shock is described by a pair of scalar fluxes (longitudinal f1, transverse
f2), two end states, and a speed tied to them by the jump condition
``s * (u_plus - u_minus) = f1(u_plus) - f1(u_minus)``.  After normalizing the
longitudinal flux so the shock stands still, the determinant

    Delta(lambda, xi) = lambda * [u] + i * xi * [f2(u)],   [h] = h(u+) - h(u-)

has no zeros with positive real part; its neutral zeros (Re lambda = 0) form
the line ``tau = -xi * [f2] / [u]`` along which the refined stability
coefficient is evaluated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DegenerateShock,
    InteriorEquilibrium,
    LaxViolation,
    RankineHugoniotViolation,
    ValidationError,
)

_JUMP_TOL = 1e-12       # identities that are exact in exact arithmetic
_NEUTRAL_TOL = 1e-14
_SCAN_SAMPLES = 10_000  # interior-equilibrium sign scan density


class FluxKind(str, enum.Enum):
    BURGERS = "burgers"
    QUADRATIC_TRANSVERSE = "quadratic_transverse"
    SINE_TRANSVERSE = "sine_transverse"
    CUSTOM = "custom"


@dataclass(frozen=True)
class FluxModel:
    """Scalar flux pair (f1, f2) with analytic derivatives (a1, a2).

    Derivatives are checked against a central difference at construction, so
    a mismatched (f, a) pair is rejected immediately.
    """

    f1: Callable
    f2: Callable
    a1: Callable
    a2: Callable
    kind: FluxKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        u = np.linspace(-3.0, 3.0, 41)
        h = 1e-5
        for fn, dfn, name in ((self.f1, self.a1, "a1"), (self.f2, self.a2, "a2")):
            fd = (np.asarray(fn(u + h)) - np.asarray(fn(u - h))) / (2 * h)
            exact = np.asarray(dfn(u))
            scale = 1.0 + np.max(np.abs(exact))
            if not np.all(np.isfinite(fd)) or np.max(np.abs(fd - exact)) > 1e-6 * scale:
                raise ValidationError(
                    f"{name} is not the derivative of its flux "
                    f"(finite-difference check failed)"
                )


def burgers_flux() -> FluxModel:
    """f1 = f2 = u^2/2: the same quadratic flux in both directions."""
    return FluxModel(
        f1=lambda u: 0.5 * u**2,
        f2=lambda u: 0.5 * u**2,
        a1=lambda u: u,
        a2=lambda u: u,
        kind=FluxKind.BURGERS,
    )


def quadratic_transverse_flux() -> FluxModel:
    """f1 = u^2/2 with transverse flux f2 = u^2."""
    return FluxModel(
        f1=lambda u: 0.5 * u**2,
        f2=lambda u: u**2,
        a1=lambda u: u,
        a2=lambda u: 2.0 * u,
        kind=FluxKind.QUADRATIC_TRANSVERSE,
    )


def sine_transverse_flux(freq: float = 4.0 * np.pi) -> FluxModel:
    """f1 = u^2/2 with oscillatory transverse flux f2 = sin(freq * u)."""
    return FluxModel(
        f1=lambda u: 0.5 * u**2,
        f2=lambda u: np.sin(freq * u),
        a1=lambda u: u,
        a2=lambda u: freq * np.cos(freq * u),
        kind=FluxKind.SINE_TRANSVERSE,
        params={"freq": float(freq)},
    )


def custom_flux(f1_coeffs, f2_coeffs) -> FluxModel:
    """Polynomial fluxes from ascending coefficient tables."""
    p1 = np.polynomial.Polynomial(np.asarray(f1_coeffs, dtype=float))
    p2 = np.polynomial.Polynomial(np.asarray(f2_coeffs, dtype=float))
    return FluxModel(
        f1=p1,
        f2=p2,
        a1=p1.deriv(),
        a2=p2.deriv(),
        kind=FluxKind.CUSTOM,
        params={
            "f1_coeffs": tuple(float(c) for c in np.atleast_1d(f1_coeffs)),
            "f2_coeffs": tuple(float(c) for c in np.atleast_1d(f2_coeffs)),
        },
    )


def make_flux(
    kind: str | FluxKind,
    sine_freq: float | None = None,
    f1_coeffs=None,
    f2_coeffs=None,
) -> FluxModel:
    """Build a flux model from its tag plus parameters (config-file path)."""
    try:
        kind = FluxKind(kind)
    except ValueError:
        raise ValidationError(
            f"field 'flux': unknown kind {kind!r} "
            f"(expected one of {[k.value for k in FluxKind]})"
        ) from None
    if kind is FluxKind.BURGERS:
        return burgers_flux()
    if kind is FluxKind.QUADRATIC_TRANSVERSE:
        return quadratic_transverse_flux()
    if kind is FluxKind.SINE_TRANSVERSE:
        if sine_freq is None:
            return sine_transverse_flux()
        return sine_transverse_flux(sine_freq)
    if f1_coeffs is None or f2_coeffs is None:
        raise ValidationError("custom flux needs f1_coeffs and f2_coeffs")
    return custom_flux(f1_coeffs, f2_coeffs)


@dataclass(frozen=True)
class ShockConfig:
    """End states with the speed-normalized longitudinal flux.

    ``f1_shifted(u) = f1(u) - s*u`` has the shock standing still; its
    derivative is ``a1_shifted(u) = a1(u) - s``.  ``f1_quadratic`` records
    whether f1 is a polynomial of degree 2, whose profile has a closed form.
    """

    u_minus: float
    u_plus: float
    s: float
    f1_shifted: Callable
    a1_shifted: Callable
    f1_quadratic: bool

    @property
    def u_jump(self) -> float:
        return self.u_plus - self.u_minus

    @property
    def u_mid(self) -> float:
        return 0.5 * (self.u_plus + self.u_minus)


@dataclass(frozen=True)
class NeutralFrequency:
    """A boundary zero (lambda = i*tau0, xi0) of the determinant."""

    tau0: float
    xi0: float


def rankine_hugoniot_speed(f: FluxModel, u_minus: float, u_plus: float) -> float:
    """Shock speed forced by the jump condition."""
    if abs(u_plus - u_minus) < _JUMP_TOL:
        raise DegenerateShock("end states coincide")
    return (f.f1(u_plus) - f.f1(u_minus)) / (u_plus - u_minus)


def normalize_to_standing(
    f: FluxModel, u_minus: float, u_plus: float, s: float
) -> ShockConfig:
    """Validate a shock triple and shift the flux so the speed is zero.

    Checks the jump condition, both admissibility inequalities of the
    shifted flux, and the absence of rest points strictly between the end
    states (scanned on a fine uniform grid).
    """
    if abs(u_plus - u_minus) < _JUMP_TOL:
        raise DegenerateShock("end states coincide")
    rh = s * (u_plus - u_minus) - (f.f1(u_plus) - f.f1(u_minus))
    if abs(rh) > _JUMP_TOL * max(1.0, abs(u_plus - u_minus)):
        raise RankineHugoniotViolation(
            f"s*[u] - [f1] = {rh:.3e} for s={s}, u-={u_minus}, u+={u_plus}"
        )

    def f1_shifted(u, _f1=f.f1, _s=s):
        return _f1(u) - _s * u

    def a1_shifted(u, _a1=f.a1, _s=s):
        return _a1(u) - _s

    if not (a1_shifted(u_plus) < 0.0):
        raise LaxViolation(f"a1(u+) - s = {a1_shifted(u_plus):.6g} must be negative")
    if not (a1_shifted(u_minus) > 0.0):
        raise LaxViolation(f"a1(u-) - s = {a1_shifted(u_minus):.6g} must be positive")

    lo = min(u_minus, u_plus) - 1.0
    hi = max(u_minus, u_plus) + 1.0
    padded = np.linspace(lo, hi, 101)
    for fn, name in ((f.f1, "f1"), (f.f2, "f2"), (f.a1, "a1"), (f.a2, "a2")):
        if not np.all(np.isfinite(np.asarray(fn(padded)))):
            raise ValidationError(
                f"{name} is not finite on the state interval [{lo}, {hi}]"
            )

    interior = np.linspace(u_minus, u_plus, _SCAN_SAMPLES + 2)[1:-1]
    g = np.asarray(f1_shifted(interior)) - f1_shifted(u_minus)
    expected = np.sign(u_plus - u_minus)
    if np.any(expected * g <= 0.0):
        raise InteriorEquilibrium(
            "shifted flux has a rest point strictly between the end states"
        )

    # every built-in flux has f1 = u^2/2; a custom f1 is a polynomial
    quadratic = f.kind is not FluxKind.CUSTOM or (
        np.polynomial.Polynomial(f.params["f1_coeffs"]).trim().degree() == 2
    )
    return ShockConfig(
        u_minus=float(u_minus),
        u_plus=float(u_plus),
        s=float(s),
        f1_shifted=f1_shifted,
        a1_shifted=a1_shifted,
        f1_quadratic=quadratic,
    )


def lopatinskii(cfg: ShockConfig, f: FluxModel, lam: complex, xi: float) -> complex:
    """Frequency-domain determinant lambda*[u] + i*xi*[f2(u)]."""
    ju = cfg.u_plus - cfg.u_minus
    jf2 = f.f2(cfg.u_plus) - f.f2(cfg.u_minus)
    return lam * ju + 1j * xi * jf2


def neutral_zero(cfg: ShockConfig, f: FluxModel, xi0: float) -> NeutralFrequency:
    """The boundary zero with transverse wavenumber xi0."""
    ju = cfg.u_plus - cfg.u_minus
    if abs(ju) < _JUMP_TOL:
        raise DegenerateShock("end-state jump vanishes")
    jf2 = f.f2(cfg.u_plus) - f.f2(cfg.u_minus)
    tau0 = -xi0 * jf2 / ju
    freq = NeutralFrequency(tau0=float(tau0), xi0=float(xi0))
    check_neutral(cfg, f, freq)
    return freq


def check_neutral(
    cfg: ShockConfig, f: FluxModel, freq: NeutralFrequency, tol: float = _NEUTRAL_TOL
) -> None:
    """Verify the neutral-zero identity; raises ValidationError otherwise."""
    val = lopatinskii(cfg, f, 1j * freq.tau0, freq.xi0)
    scale = max(1.0, abs(cfg.u_jump) * (1.0 + abs(freq.tau0) + abs(freq.xi0)))
    if abs(val) > tol * scale:
        raise ValidationError(
            f"(tau0, xi0) = ({freq.tau0}, {freq.xi0}) is not a neutral zero: "
            f"|Delta| = {abs(val):.3e}"
        )
