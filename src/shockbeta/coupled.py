"""One-shot boundary-value computation of profile and correction together.

The autonomous field

    ubar' = P(ubar),
    v'    = a1s(ubar) v + tau0 (ubar - u-) + xi0 (f2(ubar) - f2(u-)),

with P the factored profile field of :class:`ShockConfig`, has equilibria
(u-, 0) and (u+, 0) at a neutral frequency; the desired solution is the
heteroclinic connection between them.  The real part w of the
correction solves w' = a1s(ubar) w with w(0) = 0, so w = 0 and is not solved
for (see :class:`AuxiliarySolution`).  The domain [-L, L] is folded: right
and left halves are rescaled onto [0, 1] as U_r(t) = U(L t), U_l(t) = U(-L t),
giving a 4-dimensional system closed by four fold conditions: the midpoint
phase condition, two matching conditions, and the origin normalization
v(0) = 0.  Both far ends then fall into the attracting equilibria on their
own; the tail residual is verified after the solve.  The initial guess comes
from integrating the field outward from the fold, and parameter sweeps reuse
each converged solution as the next guess.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .auxiliary import DEFAULT_DECAY_TOL, AuxMethod, AuxiliarySolution
from .errors import ContinuationStalled, SolverError, ValidationError
from .model import (
    FluxModel,
    NeutralFrequency,
    ShockConfig,
    neutral_zero,
    normalize_to_standing,
    rankine_hugoniot_speed,
)
from .numerics import BvpProblem, BvpSolution, IvpProblem, bvp_solve, ivp_solve
from .profile import (
    DEFAULT_TAIL_TOL, Grid, ProfileSolution, _check_profile, check_resolution,
)

_FOLD_TOL = 1e-10
# Starting mesh of the initial guess, and the tolerances of its integration.
_GUESS_NODES = 401
_GUESS_RTOL = 1e-6
_GUESS_ATOL = 1e-8


@dataclass
class FoldedSystem:
    """Doubled and rescaled field on [0, 1] with its fold conditions."""

    cfg: ShockConfig
    flux: FluxModel
    freq: NeutralFrequency
    L: float

    def __post_init__(self):
        self._f2m = self.flux.f2(self.cfg.u_minus)

    def field(self, U: np.ndarray) -> np.ndarray:
        """Unfolded autonomous field on states U = (ubar, v)."""
        ubar, v = U
        a = self.cfg.a1_shifted(ubar)
        du = self.cfg.profile_field(ubar)
        dv = a * v + self.freq.tau0 * (ubar - self.cfg.u_minus) + self.freq.xi0 * (
            np.asarray(self.flux.f2(ubar)) - self._f2m
        )
        return np.stack([np.asarray(du, dtype=float), dv])

    def rhs(self, t, Y: np.ndarray) -> np.ndarray:
        if Y.ndim == 1:
            return self.rhs(t, Y[:, None])[:, 0]
        return np.vstack(
            [self.L * self.field(Y[:2]), -self.L * self.field(Y[2:])]
        )

    def jac(self, t, Y: np.ndarray) -> np.ndarray:
        """Jacobian of :meth:`rhs`, shape (n, 4, 4).

        Each half is lower triangular, with sign +1 on the right half and -1
        on the left: d ubar'/d ubar = d v'/d v = a1s(ubar) = P'(ubar), and
        d v'/d ubar = P''(ubar) v + tau0 + xi0 a2(ubar).
        """
        J = np.zeros((Y.shape[1], 4, 4))
        for r, sign in ((0, self.L), (2, -self.L)):
            ubar, v = Y[r], Y[r + 1]
            a = sign * self.cfg.a1_shifted(ubar)
            J[:, r, r] = a
            J[:, r + 1, r + 1] = a
            J[:, r + 1, r] = sign * (
                self.cfg.d2p(ubar) * v
                + self.freq.tau0
                + self.freq.xi0 * self.flux.a2(ubar)
            )
        return J

    @property
    def bc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The four fold conditions as ``Ba y(0) + Bb y(1) = g``; Bb = 0."""
        Ba = np.array([
            [1.0, 0.0, 0.0, 0.0],   # phase pins ubar_r(0) = u_mid
            [-1.0, 0.0, 1.0, 0.0],  # ubar matches across the fold
            [0.0, 1.0, 0.0, 0.0],   # v_r(0) = 0
            [0.0, -1.0, 0.0, 1.0],  # v matches
        ])
        return Ba, np.zeros((4, 4)), np.array([self.cfg.u_mid, 0.0, 0.0, 0.0])


@dataclass
class CoupledResult:
    profile: ProfileSolution
    aux: AuxiliarySolution
    bvp: BvpSolution

    @property
    def config(self) -> ShockConfig:
        return self.profile.config

    @property
    def freq(self) -> NeutralFrequency:
        return self.aux.freq


def initial_guess(sys: FoldedSystem) -> tuple[np.ndarray, np.ndarray]:
    """Guess by one outward integration of the folded field from the fold.

    The guess only seeds Newton on the 401-node starting mesh, whose own
    discretization error is larger than 1e-6, so tighter integration buys no
    Newton iteration; the solver refines the mesh and the answer from there.
    The guess is the route's own integration, not the integrating-factor
    profile, so the coupled route stays independent of the route it is
    checked against.
    """
    u = sys.cfg.u_mid
    traj = ivp_solve(
        IvpProblem(rhs=sys.rhs, t_span=(0.0, 1.0), y0=[u, 0.0, u, 0.0],
                   rtol=_GUESS_RTOL, atol=_GUESS_ATOL)
    )
    mesh = np.linspace(0.0, 1.0, _GUESS_NODES)
    return mesh, traj(mesh).T


def solve_coupled(
    cfg: ShockConfig,
    f: FluxModel,
    freq: NeutralFrequency,
    L: float,
    n_out: int,
    guess: tuple[np.ndarray, np.ndarray] | None = None,
    tol: float = 1e-8,
    tail_tol: float = DEFAULT_TAIL_TOL,
    decay_tol: float | None = DEFAULT_DECAY_TOL,
) -> CoupledResult:
    """Solve the folded system and sample the unfolded pair on a uniform grid.

    ``n_out`` is the interval count of the output grid on [-L, L].  A guess
    is a (mesh, state) pair on [0, 1]; by default it is generated by outward
    integration.
    """
    sys = FoldedSystem(cfg=cfg, flux=f, freq=freq, L=float(L))
    if guess is None:
        mesh, Y0 = initial_guess(sys)
    else:
        mesh, Y0 = guess

    problem = BvpProblem(
        rhs=sys.rhs, jac=sys.jac, bc=sys.bc, initial_mesh=mesh,
        initial_guess=Y0, tol=tol,
    )
    sol = bvp_solve(problem)

    at_fold = sol.interpolant(0.0)
    fold_mismatch = float(np.max(np.abs(at_fold[:2] - at_fold[2:])))
    if fold_mismatch > _FOLD_TOL:
        raise SolverError(
            f"fold duplicate mismatch {fold_mismatch:.3e} > {_FOLD_TOL}"
        )

    grid = Grid.make(L, n_out)
    x = grid.x
    folded = sol.interpolant(np.abs(x) / L)
    ubar, v = np.where(x >= 0.0, folded[:2], folded[2:])
    ubar_prime = cfg.profile_field(ubar)
    diag = {
        "method": "coupled",
        "residual_norm": sol.residual_norm,
        "newton_iters": sol.newton_iters,
        "mesh_size": int(sol.mesh.size),
        "mesh_sweeps": sol.mesh_iterations,
        "newton_per_sweep": list(sol.newton_per_sweep),
        "fold_mismatch": fold_mismatch,
    }
    profile = ProfileSolution(
        config=cfg,
        grid=grid,
        ubar=ubar,
        ubar_prime=ubar_prime,
        exact=False,
        diagnostics=dict(diag),
    )
    _check_profile(profile, tail_tol)

    aux = AuxiliarySolution(
        grid=grid,
        v=v,
        method=AuxMethod.COUPLED,
        freq=freq,
        diagnostics=dict(diag),
    )
    aux.diagnostics["tail_magnitude"] = aux.tail_magnitudes()
    if decay_tol is not None:
        aux.check_decay(decay_tol)
    return CoupledResult(profile=profile, aux=aux, bvp=sol)


def _rescaled_guess(
    prev: CoupledResult, cfg_new: ShockConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Previous folded solution with its profile stretched to the new states."""
    Y = prev.bvp.y.copy()
    up = cfg_new.u_plus
    ratio = (cfg_new.u_minus - up) / (prev.config.u_minus - up)
    Y[::2] = up + (Y[::2] - up) * ratio  # the ubar rows of both halves
    return prev.bvp.mesh.copy(), Y


def continuation_scan(
    cfg0: ShockConfig,
    f: FluxModel,
    xi0: float,
    u_minus_values,
    L: float,
    n_out: int,
    tol: float = 1e-8,
    tail_tol: float = DEFAULT_TAIL_TOL,
    decay_tol: float | None = DEFAULT_DECAY_TOL,
) -> list[CoupledResult]:
    """Sweep the left state, reusing each solution as the next guess.

    The right state is taken from ``cfg0``; speed and neutral frequency are
    recomputed at every step.  Every point the chain reaches is built, and
    the grid checked against the steepest, before the first solve; the chain
    stalls at an inadmissible later point.  On a solver failure the step is
    bisected once; if the bisected step also fails,
    :class:`ContinuationStalled` carries the chain computed so far.
    """
    def _shock(um: float) -> tuple[ShockConfig, NeutralFrequency]:
        s = rankine_hugoniot_speed(f, um, cfg0.u_plus)
        cfg = normalize_to_standing(f, um, cfg0.u_plus, s)
        return cfg, neutral_zero(cfg, f, xi0)

    shocks, inadmissible = [], None
    for um in u_minus_values:
        try:
            shocks.append(_shock(float(um)))
        except ValidationError as exc:
            if not shocks:
                raise  # first point: configuration-level problem
            inadmissible = exc
            break
    if shocks:
        steepest = max((cfg for cfg, _ in shocks), key=lambda cfg: cfg.layer_rate)
        check_resolution(steepest, L, n_out)

    def _solve_at(shock, seed: CoupledResult | None) -> CoupledResult:
        cfg, freq = shock
        guess = None if seed is None else _rescaled_guess(seed, cfg)
        return solve_coupled(
            cfg, f, freq, L, n_out, guess=guess, tol=tol,
            tail_tol=tail_tol, decay_tol=decay_tol,
        )

    points: list[CoupledResult] = []
    for k, shock in enumerate(shocks):
        prev = points[-1] if points else None
        try:
            res = _solve_at(shock, prev)
        except SolverError as exc:
            if prev is None:
                raise ContinuationStalled(k, points, exc) from exc
            # one automatic bisection of the parameter step
            try:
                um_mid = 0.5 * (prev.config.u_minus + shock[0].u_minus)
                res = _solve_at(shock, _solve_at(_shock(um_mid), prev))
            except SolverError as exc2:
                raise ContinuationStalled(k, points, exc2) from exc2
        points.append(res)
    if inadmissible is not None:
        raise ContinuationStalled(len(shocks), points, inadmissible) from inadmissible
    return points
