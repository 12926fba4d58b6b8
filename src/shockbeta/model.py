"""Flux models, shock data, and the Lopatinskii determinant.

A shock is described by a pair of scalar fluxes (longitudinal f1, transverse
f2), two end states, and a speed tied to them by the jump condition
``s * (u_plus - u_minus) = f1(u_plus) - f1(u_minus)``.  After normalizing the
longitudinal flux so the shock stands still, the determinant

    Delta(lambda, xi) = lambda * [u] + i * xi * [f2(u)],   [h] = h(u+) - h(u-)

has no zeros with positive real part; its neutral zeros (Re lambda = 0) form
the line ``tau = -xi * [f2] / [u]`` along which the refined stability
coefficient is evaluated.

The profile field ``P(u) = f1(u) - s*u - f1(u-) + s*u-`` of ``ubar' = P(ubar)``
is stored factored as ``(u - u+)(u - u-) Q(u)``, so it vanishes exactly at
both end states: every f1 is a polynomial, given by its coefficients.  A
flux is its data: f2 is a polynomial given by its coefficients or
sin(freq u) given by its frequency, and a2 is computed from the same data.

At a neutral zero the correction solves ``v' = P'(ubar) v + F(ubar)``.  Its
forcing ``F(u) = tau0 (u - u-) + xi0 (f2(u) - f2(u-))`` and the slope
``F'(u) = tau0 + xi0 a2(u)`` are the only place where f2, a2 and the neutral
frequency enter the numerics; F(u+) = 0 is the neutral condition
``Delta(i tau0, xi0) = i F(u+) = 0``.  Both routes only discretize them.

The coefficient arithmetic (difference, derivative, division by the two end
factors, evaluation) follows numpy.polynomial's order step for step, so every
table is bit-identical to its numpy.polynomial counterpart, without importing
that package.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import (
    DegenerateShock,
    InteriorEquilibrium,
    LaxViolation,
    RankineHugoniotViolation,
    ValidationError,
)
from .record import Frozen

_JUMP_TOL = 1e-12       # identities that are exact in exact arithmetic
_NEUTRAL_TOL = 1e-14
_ROUNDING = 8 * np.finfo(float).eps


class FluxKind(str, enum.Enum):
    BURGERS = "burgers"
    QUADRATIC_TRANSVERSE = "quadratic_transverse"
    SINE_TRANSVERSE = "sine_transverse"
    CUSTOM = "custom"


# f1 = u^2/2, the longitudinal flux of every built-in model
_HALF_SQUARE = (0.0, 0.0, 0.5)


def _horner(coeffs, u):
    """The polynomial with ascending ``coeffs`` at u, by Horner's rule."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * u + c
    return acc


# Ascending coefficient lists, each step as numpy.polynomial takes it.

def _trim(cs):
    """``cs`` without trailing zeros, keeping at least one (``trimseq``)."""
    k = len(cs)
    while k > 1 and cs[k - 1] == 0:
        k -= 1
    return list(cs[:k])


def _sub(a, b):
    """a - b, trimmed (``polysub``)."""
    a, b = _trim(a), _trim(b)
    tail = a[len(b):] if len(a) > len(b) else [-c for c in b[len(a):]]
    return _trim([x - y for x, y in zip(a, b)] + tail)


def _der(cs):
    """The derivative (``polyder``); 0 times the constant for a constant."""
    if len(cs) == 1:
        return [cs[0] * 0]
    return [j * c for j, c in enumerate(cs)][1:]


def _div_roots(cs, r0, r1):
    """The quotient of cs by (u - r0)(u - r1) (``polydiv`` by ``polyfromroots``)."""
    c = list(cs)
    if len(c) < 3:
        return [c[0] * 0]
    r0, r1 = sorted((r0, r1))
    # u^2 + a u + b; numpy's convolution sums b from +0.0
    a, b = -r0 + -r1, r0 * r1 + 0.0
    for j in range(len(c) - 1, 1, -1):
        c[j - 2] -= b * c[j]
        c[j - 1] -= a * c[j]
    return c[2:]


def _real_roots(cs):
    """Real parts of the roots of cs (``polyroots``, unsorted)."""
    cs = _trim(cs)
    if len(cs) < 2:
        return np.empty(0)
    if len(cs) == 2:
        return np.array([-cs[0] / cs[1]])
    n = len(cs) - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n::n + 1] = 1.0
    companion[:, -1] -= np.divide(cs[:-1], cs[-1])
    return np.linalg.eigvals(companion).real


class FluxModel(Frozen):
    """Scalar flux pair as data: polynomial f1, and f2 a polynomial or a sine.

    f1 is ``f1_coeffs``, ascending; f2 is ``f2_coeffs`` or sin(``sine_freq`` u),
    exactly one of them given.  Each derivative comes from the same data as
    its function, so a2 is the derivative of f2 by construction.
    """

    _fields = ("kind", "f1_coeffs", "f2_coeffs", "sine_freq")

    def __init__(self, kind: FluxKind, f1_coeffs: tuple,
                 f2_coeffs: tuple | None = None, sine_freq: float | None = None):
        self.__dict__.update(kind=kind, f1_coeffs=f1_coeffs, f2_coeffs=f2_coeffs,
                             sine_freq=sine_freq)
        if not np.all(np.isfinite(f1_coeffs)):
            raise ValidationError("f1_coeffs must be finite")
        if f2_coeffs is not None:
            # Python floats: an overflowing coefficient is inf, with no warning
            self.__dict__["_a2_coeffs"] = (
                tuple(k * c for k, c in enumerate(f2_coeffs))[1:] or (0.0,))

    def f1(self, u):
        """f1(u) from its coefficients."""
        return _horner(self.f1_coeffs, u)

    def f2(self, u):
        """f2(u): from its coefficients, or sin(sine_freq u)."""
        if self.sine_freq is None:
            return _horner(self.f2_coeffs, u)
        return np.sin(self.sine_freq * u)

    def a2(self, u):
        """a2(u) = f2'(u), from the same data as :meth:`f2`."""
        if self.sine_freq is None:
            return _horner(self._a2_coeffs, u)
        return self.sine_freq * np.cos(self.sine_freq * u)


def burgers_flux() -> FluxModel:
    """f1 = f2 = u^2/2: the same quadratic flux in both directions."""
    return FluxModel(FluxKind.BURGERS, _HALF_SQUARE, f2_coeffs=_HALF_SQUARE)


def quadratic_transverse_flux() -> FluxModel:
    """f1 = u^2/2 with transverse flux f2 = u^2."""
    return FluxModel(FluxKind.QUADRATIC_TRANSVERSE, _HALF_SQUARE,
                     f2_coeffs=(0.0, 0.0, 1.0))


def sine_transverse_flux(freq: float = 4.0 * np.pi) -> FluxModel:
    """f1 = u^2/2 with oscillatory transverse flux f2 = sin(freq * u)."""
    return FluxModel(FluxKind.SINE_TRANSVERSE, _HALF_SQUARE, sine_freq=float(freq))


def custom_flux(f1_coeffs, f2_coeffs) -> FluxModel:
    """Polynomial fluxes from ascending coefficient tables."""
    f1, f2 = (tuple(map(float, np.atleast_1d(cs))) for cs in (f1_coeffs, f2_coeffs))
    return FluxModel(FluxKind.CUSTOM, f1, f2_coeffs=f2)


# The parameters of make_flux that a kind takes; it refuses any other.
_KIND_KEYS = {
    FluxKind.SINE_TRANSVERSE: ("sine_freq",),
    FluxKind.CUSTOM: ("f1_coeffs", "f2_coeffs"),
}


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
    given = {"sine_freq": sine_freq, "f1_coeffs": f1_coeffs, "f2_coeffs": f2_coeffs}
    for key, value in given.items():
        if value is not None and key not in _KIND_KEYS.get(kind, ()):
            raise ValidationError(
                f"field '{key}': the {kind.value} flux takes no {key}")
    if kind is FluxKind.CUSTOM:
        if f1_coeffs is None or f2_coeffs is None:
            raise ValidationError("custom flux needs f1_coeffs and f2_coeffs")
        return custom_flux(f1_coeffs, f2_coeffs)
    if sine_freq is not None:
        return sine_transverse_flux(sine_freq)
    return {FluxKind.BURGERS: burgers_flux,
            FluxKind.QUADRATIC_TRANSVERSE: quadratic_transverse_flux,
            FluxKind.SINE_TRANSVERSE: sine_transverse_flux}[kind]()


class ShockConfig(Frozen):
    """End states with the speed-normalized longitudinal flux.

    The ascending coefficient tables all derive from the one profile field
    ``P(u) = f1(u) - s*u - f1(u-) + s*u-`` of the standing frame:
    ``q_coeffs`` is Q in ``P(u) = (u - u+)(u - u-) Q(u)`` (a constant for a
    quadratic f1, whose profile has a closed form), ``dp_coeffs`` is
    ``P' = a1 - s`` and ``d2p_coeffs`` is ``P''``.
    """

    _fields = ("u_minus", "u_plus", "s", "q_coeffs", "dp_coeffs", "d2p_coeffs")

    def __init__(self, u_minus: float, u_plus: float, s: float, q_coeffs: tuple,
                 dp_coeffs: tuple, d2p_coeffs: tuple):
        self.__dict__.update(u_minus=u_minus, u_plus=u_plus, s=s, q_coeffs=q_coeffs,
                             dp_coeffs=dp_coeffs, d2p_coeffs=d2p_coeffs)

    def q(self, u):
        """Q(u)."""
        return _horner(self.q_coeffs, u)

    def a1_shifted(self, u):
        """P'(u) = a1(u) - s, the flux derivative in the standing frame."""
        return _horner(self.dp_coeffs, u)

    def d2p(self, u):
        """P''(u)."""
        return _horner(self.d2p_coeffs, u)

    def profile_field(self, u):
        """P(u), the right side of ``ubar' = P(ubar)``; exactly 0 at u+-."""
        return (u - self.u_plus) * (u - self.u_minus) * self.q(u)

    @property
    def layer_rate(self) -> float:
        """max|a1s(u+-)|: the profile meets u+- like exp(a1s(u+-) x)."""
        return max(abs(self.a1_shifted(u)) for u in (self.u_plus, self.u_minus))

    @property
    def u_jump(self) -> float:
        return self.u_plus - self.u_minus

    @property
    def u_mid(self) -> float:
        return 0.5 * (self.u_plus + self.u_minus)


class NeutralFrequency(Frozen):
    """A boundary zero (lambda = i*tau0, xi0) of the determinant."""

    _fields = ("tau0", "xi0")

    def __init__(self, tau0: float, xi0: float):
        self.__dict__.update(tau0=tau0, xi0=xi0)

    def per_unit(self) -> tuple[float, "NeutralFrequency"]:
        """``(|xi0|, self / |xi0|)``, or ``(1, self)`` at xi0 = 0."""
        scale = abs(self.xi0) or 1.0
        return scale, NeutralFrequency(self.tau0 / scale, self.xi0 / scale)


def rankine_hugoniot_speed(f: FluxModel, u_minus: float, u_plus: float) -> float:
    """Shock speed forced by the jump condition."""
    if abs(u_plus - u_minus) < _JUMP_TOL:
        raise DegenerateShock("end states coincide")
    return (f.f1(u_plus) - f.f1(u_minus)) / (u_plus - u_minus)


def standing_shock(
    f: FluxModel, u_minus: float, u_plus: float, xi0: float
) -> tuple[ShockConfig, NeutralFrequency]:
    """The validated standing shock from u- to u+ and its neutral zero at xi0."""
    s = rankine_hugoniot_speed(f, u_minus, u_plus)
    cfg = normalize_to_standing(f, u_minus, u_plus, s)
    return cfg, neutral_zero(cfg, f, xi0)


def normalize_to_standing(
    f: FluxModel, u_minus: float, u_plus: float, s: float
) -> ShockConfig:
    """Validate a shock triple and shift the flux so the speed is zero.

    Checks the jump condition, both admissibility inequalities of the
    shifted flux, and the absence of rest points strictly between the end
    states; factors the profile field as ``(u - u+)(u - u-) Q(u)`` and
    differentiates it twice.
    """
    if abs(u_plus - u_minus) < _JUMP_TOL:
        raise DegenerateShock("end states coincide")
    rh = s * (u_plus - u_minus) - (f.f1(u_plus) - f.f1(u_minus))
    if abs(rh) > _JUMP_TOL * max(1.0, abs(u_plus - u_minus)):
        raise RankineHugoniotViolation(
            f"s*[u] - [f1] = {rh:.3e} for s={s}, u-={u_minus}, u+={u_plus}"
        )

    # P = f1 - s*u - c0, expanded; every field of the config derives from it
    p = _sub(f.f1_coeffs, (f.f1(u_minus) - s * u_minus, s))
    dp = _der(p)
    q = _div_roots(p, u_plus, u_minus)
    cfg = ShockConfig(
        u_minus=float(u_minus),
        u_plus=float(u_plus),
        s=float(s),
        q_coeffs=tuple(float(c) for c in q),
        dp_coeffs=tuple(float(c) for c in dp),
        d2p_coeffs=tuple(float(c) for c in _der(dp)),
    )
    a_plus, a_minus = cfg.a1_shifted(u_plus), cfg.a1_shifted(u_minus)
    if not (a_plus < 0.0):
        raise LaxViolation(f"a1(u+) - s = {a_plus:.6g} must be negative")
    if not (a_minus > 0.0):
        raise LaxViolation(f"a1(u-) - s = {a_minus:.6g} must be positive")

    lo = min(u_minus, u_plus) - 1.0
    hi = max(u_minus, u_plus) + 1.0
    padded = np.linspace(lo, hi, 101)
    for fn, name in ((f.f2, "f2"), (f.a2, "a2")):
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.all(np.isfinite(fn(padded)))
        if not finite:
            raise ValidationError(
                f"{name} is not finite on the state interval [{lo}, {hi}]"
            )

    # A rest point inside is a zero of Q.  Lax makes sign(u- - u+) Q positive
    # at both ends, so its least value is at an end or an interior critical
    # point of Q; one at the rounding level of Q counts as a rest point.
    crit = _real_roots(_der(q))
    samples = np.concatenate(
        [[u_minus, u_plus], crit[(crit - u_minus) * (crit - u_plus) < 0.0]]
    )
    rounding = _ROUNDING * _horner(np.abs(cfg.q_coeffs), np.abs(samples))
    if np.any(np.sign(u_minus - u_plus) * cfg.q(samples) <= rounding):
        raise InteriorEquilibrium(
            "shifted flux has a rest point strictly between the end states"
        )
    return cfg


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


def check_neutral(cfg: ShockConfig, f: FluxModel, freq: NeutralFrequency) -> None:
    """Verify the neutral-zero identity; raises ValidationError otherwise."""
    val = lopatinskii(cfg, f, 1j * freq.tau0, freq.xi0)
    scale = max(1.0, abs(cfg.u_jump) * (1.0 + abs(freq.tau0) + abs(freq.xi0)))
    if abs(val) > _NEUTRAL_TOL * scale:
        raise ValidationError(
            f"(tau0, xi0) = ({freq.tau0}, {freq.xi0}) is not a neutral zero: "
            f"|Delta| = {abs(val):.3e}"
        )


def forcing(f: FluxModel, freq: NeutralFrequency, u_minus: float, u):
    """F(u) = tau0 (u - u-) + xi0 (f2(u) - f2(u-)), the forcing of v."""
    return freq.tau0 * (u - u_minus) + freq.xi0 * (np.asarray(f.f2(u)) - f.f2(u_minus))


def forcing_slope(f: FluxModel, freq: NeutralFrequency, u):
    """F'(u) = tau0 + xi0 a2(u)."""
    return freq.tau0 + freq.xi0 * np.asarray(f.a2(u))
