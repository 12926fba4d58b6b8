"""Standing-wave viscous profiles on a truncated, uniformly sampled domain.

The profile solves ``ubar' = f1_shifted(ubar) - f1_shifted(u_minus)`` and
connects u_minus (at -infinity) to u_plus (at +infinity).  The translation
family is pinned by the midpoint phase condition ``ubar(0) = (u+ + u-)/2``;
integration runs outward from the origin, into the attracting ends, as one
sweep of the folded pair (ubar(t), ubar(-t)) over t in [0, L].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, TailNotResolved, ValidationError
from .model import (
    FluxKind,
    FluxModel,
    ShockConfig,
    burgers_flux,
    normalize_to_standing,
)
from .numerics import IvpProblem, ivp_solve

DEFAULT_TAIL_TOL = 1e-6

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


def has_exact_profile(f: FluxModel, cfg: ShockConfig) -> bool:
    """Whether :func:`exact_burgers_profile` is the profile of this shock.

    Every built-in flux has f1 = u^2/2; the states must be u-+ = +-1 (speed 0).
    """
    states = (cfg.u_minus, cfg.u_plus, cfg.s)
    return f.kind is not FluxKind.CUSTOM and states == (1.0, -1.0, 0.0)


def exact_burgers_profile(grid: Grid) -> ProfileSolution:
    """Closed-form standing profile -tanh(x/2) of the quadratic flux.

    Valid for u_minus = 1, u_plus = -1 (speed 0), where the profile equation
    reduces to ``ubar' = (ubar^2 - 1)/2``.
    """
    cfg = normalize_to_standing(burgers_flux(), 1.0, -1.0, 0.0)
    ubar = -np.tanh(grid.x / 2.0)
    ubar_prime = 0.5 * (ubar**2 - 1.0)
    return ProfileSolution(
        config=cfg,
        grid=grid,
        ubar=ubar,
        ubar_prime=ubar_prime,
        exact=True,
        diagnostics={"method": "exact"},
    )


def solve_profile(
    cfg: ShockConfig,
    grid: Grid,
    rtol: float = 1e-12,
    atol: float = 1e-14,
    max_step: float = np.inf,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ProfileSolution:
    """Integrate the profile equation outward from the midpoint anchor.

    Raises :class:`TailNotResolved` when the endpoint residual exceeds
    ``tail_tol`` (the domain half-width L is too small for the decay rates).
    """
    c0 = cfg.f1_shifted(cfg.u_minus)
    outward = np.array([1.0, -1.0])

    def rhs(t, y):
        return outward * (cfg.f1_shifted(y) - c0)

    traj = ivp_solve(
        IvpProblem(rhs=rhs, t_span=(0.0, grid.L), y0=np.full(2, cfg.u_mid),
                   rtol=rtol, atol=atol, max_step=max_step)
    )
    x = grid.x
    folded = traj(np.abs(x))
    ubar = np.where(x >= 0.0, folded[:, 0], folded[:, 1])

    ubar_prime = np.asarray(cfg.f1_shifted(ubar)) - c0
    ps = ProfileSolution(
        config=cfg,
        grid=grid,
        ubar=ubar,
        ubar_prime=ubar_prime,
        exact=False,
        diagnostics={"method": "ivp", "rtol": rtol, "atol": atol},
    )
    _check_profile(ps, tail_tol)
    return ps
