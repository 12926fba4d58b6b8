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
the log of its deviation from the end state it approaches.  That profile and
``v = R x P(ubar)`` are the closed-form pair of ``compare`` and of the
coupled route's guess, written once (:func:`tanh_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, TailNotResolved, ValidationError
from .model import FluxModel, NeutralFrequency, ShockConfig, forcing
from .numerics import IvpProblem, ivp_solve

DEFAULT_TAIL_TOL = 1e-6

# Relative and absolute tolerance of the profile IVP (custom f1 of degree >= 3)
# in l = log|ubar - u_end|: an error in l is a relative error of the deviation.
_IVP_TOL = 1e-12

# Interval budget of an output grid.  A command's peak memory grows by at most
# about 160 bytes per interval (aux at 4e6 intervals: 628 MB ru_maxrss), so
# this bounds it near 1.6 GB.
_MAX_INTERVALS = 10**7

# Machine-level ties are tolerated when checking strict monotonicity: in the
# saturated tails consecutive samples can differ by less than one ulp.
_TIE_TOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class Grid:
    """Uniform abscissae on [-L, L] with N intervals; (L, N) is the whole grid.

    N is even and at least 4, so the centre x = 0 of the shock layer, where
    v(0) = 0 pins the correction, is a node (:attr:`origin_index`) of the
    grid and of its every-other-node coarsening, which has 3 nodes or more.
    """

    L: float
    N: int
    x: np.ndarray = field(init=False, repr=False, compare=False)

    @staticmethod
    def check(L: float, N: int) -> None:
        if L <= 0:
            raise ValidationError(f"field 'L': {L:g} is not positive")
        if not np.isfinite(2.0 * L):
            raise ValidationError(f"field 'L': {L:g} is too wide: 2L overflows a float")
        if N < 4:
            raise ValidationError(f"field 'N': {N} intervals; the grid needs N >= 4")
        if N > _MAX_INTERVALS:
            raise ValidationError(
                f"field 'N': {N} intervals exceed the budget of {_MAX_INTERVALS}"
            )
        if N % 2:
            raise ValidationError(
                f"field 'N': {N} is odd, but the grid needs a node at x = 0"
            )

    @classmethod
    def make(cls, L: float, N: int) -> "Grid":
        cls.check(L, N)
        return cls(L=float(L), N=int(N))

    def __post_init__(self):
        object.__setattr__(self, "x", np.linspace(-self.L, self.L, self.N + 1))

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def origin_index(self) -> int:
        """Index N/2 of the centre node, x = 0 up to the rounding of linspace:
        v is anchored there, and every grid's halves are x[:N/2] and x[N/2:]."""
        return self.N // 2


def check_resolution(cfg: ShockConfig, L: float, N: int) -> None:
    """Before any solve: :meth:`Grid.check`, then a grid that resolves the layer.

    The profile meets u+- like exp(a1s(u+-) x); with h max|a1s(u+-)| > 1/2
    (h = 2L/N) the layer falls on a few nodes, where neither route's beta is
    to be trusted.  The N named is even, as every grid's is; when it is
    above the interval budget, the widest L the budget resolves,
    _MAX_INTERVALS / (4 max|a1s(u+-)|), is named instead.
    """
    Grid.check(L, N)
    width = 2.0 * L * cfg.layer_rate  # h max|a1s(u+-)| = width / N
    ratio = width / N
    if ratio > 0.5:
        if width > _MAX_INTERVALS // 2:  # least admissible N = 2 ceil(width) > budget
            advice = (f"no grid within the budget of {_MAX_INTERVALS} intervals "
                      f"resolves it; the budget admits L up to about "
                      f"{_MAX_INTERVALS / (4 * cfg.layer_rate):.3g}")
        else:
            advice = f"the smallest admissible even N is {2 * int(np.ceil(width))}"
        # enough digits that a refused grid never reads as admissible
        shown = f"{ratio:.3g}" if ratio >= 0.501 else str(float(ratio))
        raise ValidationError(
            f"field 'N': {N} intervals on [-{L:g}, {L:g}] at u- = "
            f"{cfg.u_minus:g}, u+ = {cfg.u_plus:g} give "
            f"h max|a1s(u+-)| = {shown} > 1/2, too coarse for the profile "
            f"layer; {advice}"
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
    """Refuse unresolved tails and a profile that is not monotone.

    The tail gate is relative to the jump: each endpoint residual must be at
    most ``tail_tol`` |u+ - u-|, so a shock of any size has to be carried
    the same fraction of the way to its end states.
    """
    left, right = ps.tail_residuals()
    jump = abs(ps.config.u_jump)
    if max(left, right) > tail_tol * jump:
        raise TailNotResolved(
            f"endpoint residuals ({left:.3e}, {right:.3e}) exceed {tail_tol:.1e} "
            f"times the jump {jump:.3e}; increase L"
        )
    direction = np.sign(ps.config.u_plus - ps.config.u_minus)
    dd = direction * np.diff(ps.ubar)
    scale = 1.0 + max(abs(ps.config.u_minus), abs(ps.config.u_plus))
    if np.any(dd < -_TIE_TOL * scale):
        raise SolverError("computed profile is not monotone")


def _tanh_profile(cfg: ShockConfig, x: np.ndarray) -> np.ndarray:
    """Closed-form profile of a quadratic f1: u_mid - delta tanh(k x).

    delta = (u- - u+)/2, and each side takes the rate k = delta Q(u_end) =
    |a1s(u_end)|/2 of the end state it approaches (u+ for x >= 0).  Where tanh
    has saturated to +-1 the samples are the end states themselves.
    """
    delta = 0.5 * (cfg.u_minus - cfg.u_plus)
    k_plus, k_minus = delta * cfg.q(cfg.u_plus), delta * cfg.q(cfg.u_minus)
    kx = k_plus * np.maximum(x, 0.0) + k_minus * np.minimum(x, 0.0)
    t = np.tanh(kx, out=kx)
    ubar = cfg.u_mid - delta * t
    ubar[t == 1.0] = cfg.u_plus
    ubar[t == -1.0] = cfg.u_minus
    return ubar


def tanh_pair(f: FluxModel, cfg: ShockConfig, freq: NeutralFrequency,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form pair at x: ubar of :func:`_tanh_profile` and v = R x P(ubar).

    R = F(u_mid) / P(u_mid), so v = ubar' int_0^x R: exact where F/P is that
    constant (:func:`closed_form_is_exact`).
    """
    u = cfg.u_mid
    R = forcing(f, freq, cfg.u_minus, u) / cfg.profile_field(u)
    ubar = _tanh_profile(cfg, x)
    return ubar, R * x * cfg.profile_field(ubar)


def closed_form_is_exact(f: FluxModel, cfg: ShockConfig) -> bool:
    """Whether the closed-form pair of :func:`tanh_pair` solves the problem.

    It does for a quadratic f1 and a polynomial f2 of degree <= 2: F is then
    xi0 c2 (u - u-)(u - u+), c2 the u^2 coefficient of f2, and P is
    a (u - u-)(u - u+), so F/P is a constant.
    """
    return (len(cfg.q_coeffs) == 1 and f.f2_coeffs is not None
            and len(np.trim_zeros(f.f2_coeffs, "b")) <= 3)


def exact_solution(
    f: FluxModel, cfg: ShockConfig, freq: NeutralFrequency, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`tanh_pair`, refused where it is not the exact pair."""
    if not closed_form_is_exact(f, cfg):
        raise ValidationError(
            "no exact solution for this configuration: compare needs a "
            "quadratic f1 and an f2 of degree <= 2 (flux burgers, "
            "quadratic_transverse, or custom)"
        )
    return tanh_pair(f, cfg, freq, x)


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
    ubar = np.empty_like(x)
    k = grid.origin_index
    for half, on_half in enumerate((slice(k, None), slice(None, k))):
        log_d = traj(np.abs(x[on_half]), rows=slice(half, half + 1))[0]
        ubar[on_half] = ends[half] + sign[half] * np.exp(log_d)
    # u_end + (u_mid - u_end) may round off u_mid, and linspace may put the
    # centre node a rounding off 0.0
    ubar[grid.origin_index] = cfg.u_mid
    return ubar


def solve_profile(
    cfg: ShockConfig, grid: Grid, tail_tol: float = DEFAULT_TAIL_TOL
) -> ProfileSolution:
    """The profile on ``grid``: in closed form for quadratic f1, else by IVP.

    A quadratic f1 (every built-in flux, and a custom f1 of degree 2) has the
    tanh profile of :func:`_tanh_profile`, monotone by construction.  A custom
    f1 of degree >= 3 is integrated outward from the midpoint anchor.  Either
    way ``ubar_prime`` is the profile field P at ``ubar``.

    Raises :class:`TailNotResolved` when an endpoint residual exceeds
    ``tail_tol`` times the jump |u+ - u-| (the domain half-width L is too
    small for the decay rates).
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
