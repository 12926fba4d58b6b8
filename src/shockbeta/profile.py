"""Standing-wave viscous profiles on a truncated, uniformly sampled domain.

The profile solves ``ubar' = f1_shifted(ubar) - f1_shifted(u_minus)`` and
connects u_minus (at -infinity) to u_plus (at +infinity).  The translation
family is pinned by the midpoint phase condition ``ubar(0) = (u+ + u-)/2``.

For a quadratic f1 (every built-in flux, and a custom f1 of degree 2) the
profile is the closed form ``u_mid - delta * tanh(a * delta * x)`` with
``delta = (u- - u+)/2`` and a the leading coefficient of f1: exact up to
rounding, and monotone by construction.  For a custom f1 of degree >= 3 the
equation is integrated outward from the origin, into the attracting ends, as
one sweep of the folded pair (ubar(t), ubar(-t)) over t in [0, L].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, TailNotResolved, ValidationError
from .model import ShockConfig
from .numerics import IvpProblem, ivp_solve

DEFAULT_TAIL_TOL = 1e-6

# Tolerances of the profile IVP (custom f1 of degree >= 3 only).
_IVP_RTOL = 1e-12
_IVP_ATOL = 1e-14

# Machine-level ties are tolerated when checking strict monotonicity: in the
# saturated tails consecutive samples can differ by less than one ulp.
_TIE_TOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class Grid:
    """Uniform abscissae on [-L, L] with N intervals."""

    L: float
    N: int
    x: np.ndarray

    @classmethod
    def make(cls, L: float, N: int) -> "Grid":
        if L <= 0 or N < 2:
            raise ValidationError("grid needs L > 0 and N >= 2")
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

    With f1_shifted(u) - c0 = a (u - u-)(u - u+), the leading coefficient is
    a = a1_shifted(u+) / (u+ - u-), and delta = (u- - u+)/2.
    """
    a = cfg.a1_shifted(cfg.u_plus) / cfg.u_jump
    delta = 0.5 * (cfg.u_minus - cfg.u_plus)
    return cfg.u_mid - delta * np.tanh(a * delta * x)


def _ivp_profile(cfg: ShockConfig, grid: Grid, c0: float) -> np.ndarray:
    """Profile by one outward integration of the folded pair from the origin."""
    outward = np.array([1.0, -1.0])

    def rhs(t, y):
        return outward * (cfg.f1_shifted(y) - c0)

    traj = ivp_solve(
        IvpProblem(rhs=rhs, t_span=(0.0, grid.L), y0=np.full(2, cfg.u_mid),
                   rtol=_IVP_RTOL, atol=_IVP_ATOL)
    )
    x = grid.x
    folded = traj(np.abs(x))
    return np.where(x >= 0.0, folded[:, 0], folded[:, 1])


def solve_profile(
    cfg: ShockConfig, grid: Grid, tail_tol: float = DEFAULT_TAIL_TOL
) -> ProfileSolution:
    """The profile on ``grid``: in closed form for quadratic f1, else by IVP.

    A quadratic f1 (every built-in flux, and a custom f1 of degree 2) has the
    tanh profile of :func:`_tanh_profile`, monotone by construction.  A custom
    f1 of degree >= 3 is integrated outward from the midpoint anchor.  Either
    way ``ubar_prime`` is the right side of the profile equation at ``ubar``.

    Raises :class:`TailNotResolved` when the endpoint residual exceeds
    ``tail_tol`` (the domain half-width L is too small for the decay rates).
    """
    c0 = cfg.f1_shifted(cfg.u_minus)
    if cfg.f1_quadratic:
        ubar = _tanh_profile(cfg, grid.x)
        diagnostics = {"method": "tanh"}
    else:
        ubar = _ivp_profile(cfg, grid, c0)
        diagnostics = {"method": "ivp", "rtol": _IVP_RTOL, "atol": _IVP_ATOL}
    ps = ProfileSolution(
        config=cfg,
        grid=grid,
        ubar=ubar,
        ubar_prime=np.asarray(cfg.f1_shifted(ubar)) - c0,
        exact=cfg.f1_quadratic,
        diagnostics=diagnostics,
    )
    _check_profile(ps, tail_tol)
    return ps
