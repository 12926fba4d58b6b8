"""Standing-wave viscous profiles on a truncated, uniformly sampled domain.

The profile solves ``ubar' = P(ubar)`` (P the factored field of
:class:`ShockConfig`) and connects u_minus (at -infinity) to u_plus (at
+infinity).  The translation family is pinned by ``ubar(0) = (u+ + u-)/2``.

For a quadratic f1 (every built-in flux, and a custom f1 of degree 2) Q is
the leading coefficient a of f1, and the profile is the closed form
``u_mid - delta * tanh(a * delta * x)`` with ``delta = (u- - u+)/2``: monotone
by construction, and exactly u+- where tanh has saturated.  For a custom f1
of degree >= 3 the equation is integrated outward from the origin as one
sweep of the folded pair (ubar(t), ubar(-t)) over t in [0, L], each half as
the log of its deviation from the end state it approaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, TailNotResolved, ValidationError
from .model import ShockConfig
from .numerics import IvpProblem, ivp_solve

DEFAULT_TAIL_TOL = 1e-6

# Relative and absolute tolerance of the profile IVP (custom f1 of degree >= 3)
# in l = log|ubar - u_end|: an error in l is a relative error of the deviation.
_IVP_TOL = 1e-12

# Machine-level ties are tolerated when checking strict monotonicity: in the
# saturated tails consecutive samples can differ by less than one ulp.
_TIE_TOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class Grid:
    """Uniform abscissae on [-L, L] with N intervals."""

    L: float
    N: int
    x: np.ndarray

    @staticmethod
    def check(L: float, N: int) -> None:
        if L <= 0 or N < 2:
            raise ValidationError("grid needs L > 0 and N >= 2")

    @classmethod
    def make(cls, L: float, N: int) -> "Grid":
        cls.check(L, N)
        return cls(L=float(L), N=int(N), x=np.linspace(-L, L, N + 1))

    def __post_init__(self):
        x = self.x
        if x[0] != -self.L or x[-1] != self.L or x.size != self.N + 1:
            raise ValidationError("grid abscissae inconsistent with (L, N)")
        d = np.diff(x)
        # node rounding is ~eps*|x|, so "uniform" is relative to the domain scale
        if np.max(np.abs(d - self.h)) > 1e-14 * max(1.0, self.L):
            raise ValidationError("grid spacing is not uniform")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def origin_index(self) -> int:
        """Index of the x = 0 node; requires even N."""
        if self.N % 2 != 0:
            raise ValidationError("origin is a node only for even N")
        return self.N // 2


def check_resolution(cfg: ShockConfig, L: float, N: int) -> None:
    """Before any solve: :meth:`Grid.check`, then a grid that resolves the layer.

    The profile meets u+- like exp(a1s(u+-) x); with h max|a1s(u+-)| > 1/2
    (h = 2L/N) the layer falls on a few nodes, where neither route's beta is
    to be trusted.  The N named is even, as Simpson's rule and ``if`` need.
    """
    Grid.check(L, N)
    width = 2.0 * L * cfg.layer_rate  # h max|a1s(u+-)| = width / N
    ratio = width / N
    if ratio > 0.5:
        least = 2 * int(np.ceil(width)) if width < 2.0**52 else f"about {2 * width:.3g}"
        # enough digits that a refused grid never reads as admissible
        shown = f"{ratio:.3g}" if ratio >= 0.501 else str(float(ratio))
        raise ValidationError(
            f"field 'N': {N} intervals on [-{L:g}, {L:g}] at u- = "
            f"{cfg.u_minus:g}, u+ = {cfg.u_plus:g} give "
            f"h max|a1s(u+-)| = {shown} > 1/2, too coarse for the profile "
            f"layer; the smallest admissible even N is {least}"
        )


@dataclass
class ProfileSolution:
    """Sampled profile with derivative values taken from the ODE right side."""

    config: ShockConfig
    grid: Grid
    ubar: np.ndarray
    ubar_prime: np.ndarray
    exact: bool
    diagnostics: dict = field(default_factory=dict)

    def tail_residuals(self) -> tuple[float, float]:
        """|ubar(-L) - u_minus| and |ubar(L) - u_plus|."""
        return (
            abs(self.ubar[0] - self.config.u_minus),
            abs(self.ubar[-1] - self.config.u_plus),
        )


def _check_profile(ps: ProfileSolution, tail_tol: float) -> None:
    left, right = ps.tail_residuals()
    if max(left, right) > tail_tol:
        raise TailNotResolved(
            f"endpoint residuals ({left:.3e}, {right:.3e}) exceed {tail_tol:.1e}; "
            f"increase L"
        )
    direction = np.sign(ps.config.u_plus - ps.config.u_minus)
    dd = direction * np.diff(ps.ubar)
    scale = 1.0 + max(abs(ps.config.u_minus), abs(ps.config.u_plus))
    if np.any(dd < -_TIE_TOL * scale):
        raise SolverError("computed profile is not monotone")


def _tanh_profile(cfg: ShockConfig, x: np.ndarray) -> np.ndarray:
    """Closed-form profile of a quadratic f1: u_mid - delta tanh(a delta x).

    P(u) = a (u - u+)(u - u-) with the constant Q = a, and delta = (u- - u+)/2.
    Where tanh has saturated to +-1 the samples are the end states themselves.
    """
    delta = 0.5 * (cfg.u_minus - cfg.u_plus)
    t = np.tanh(cfg.q_coeffs[0] * delta * x)
    ubar = cfg.u_mid - delta * t
    ubar[t == 1.0] = cfg.u_plus
    ubar[t == -1.0] = cfg.u_minus
    return ubar


def _ivp_profile(cfg: ShockConfig, grid: Grid) -> np.ndarray:
    """Profile by one outward integration of the folded pair from the origin.

    Each half is the deviation d = ubar - u_end from the end state it nears,
    integrated as l = log|d|: l' = +-(d - (u_other - u_end)) Q(u_end + d) with
    d = sign exp(l).  d keeps its sign and |d| is monotone, so the profile is
    monotone by construction, and l is nearly linear on the tails.
    """
    outward = np.array([1.0, -1.0])
    ends = np.array([cfg.u_plus, cfg.u_minus])
    gaps = ends[::-1] - ends
    d0 = cfg.u_mid - ends
    sign = np.sign(d0)

    def rhs(t, log_d):
        d = sign * np.exp(log_d)
        return outward * (d - gaps) * cfg.q(ends + d)

    traj = ivp_solve(
        IvpProblem(rhs=rhs, t_span=(0.0, grid.L), y0=np.log(np.abs(d0)),
                   rtol=_IVP_TOL, atol=_IVP_TOL)
    )
    x = grid.x
    folded = ends + sign * np.exp(traj(np.abs(x)))
    ubar = np.where(x >= 0.0, folded[:, 0], folded[:, 1])
    ubar[x == 0.0] = cfg.u_mid  # u_end + (u_mid - u_end) may round off u_mid
    return ubar


def solve_profile(
    cfg: ShockConfig, grid: Grid, tail_tol: float = DEFAULT_TAIL_TOL
) -> ProfileSolution:
    """The profile on ``grid``: in closed form for quadratic f1, else by IVP.

    A quadratic f1 (every built-in flux, and a custom f1 of degree 2) has the
    tanh profile of :func:`_tanh_profile`, monotone by construction.  A custom
    f1 of degree >= 3 is integrated outward from the midpoint anchor.  Either
    way ``ubar_prime`` is the profile field P at ``ubar``.

    Raises :class:`TailNotResolved` when the endpoint residual exceeds
    ``tail_tol`` (the domain half-width L is too small for the decay rates).
    """
    quadratic = len(cfg.q_coeffs) == 1
    if quadratic:
        ubar = _tanh_profile(cfg, grid.x)
        diagnostics = {"method": "tanh"}
    else:
        ubar = _ivp_profile(cfg, grid)
        diagnostics = {"method": "ivp", "rtol": _IVP_TOL, "atol": _IVP_TOL}
    ps = ProfileSolution(
        config=cfg,
        grid=grid,
        ubar=ubar,
        ubar_prime=cfg.profile_field(ubar),
        exact=quadratic,
        diagnostics=diagnostics,
    )
    _check_profile(ps, tail_tol)
    return ps
