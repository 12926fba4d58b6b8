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
from .profile import DEFAULT_TAIL_TOL, Grid, ProfileSolution, _check_profile

_FOLD_TOL = 1e-10


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

    def bc(self, Ya: np.ndarray, Yb: np.ndarray) -> np.ndarray:
        """Four residuals at the fold: phase, matching, origin normalization."""
        return np.array(
            [
                Ya[0] - self.cfg.u_mid,  # phase pins ubar_r(0)
                Ya[2] - Ya[0],           # ubar matches across the fold
                Ya[1],                   # v_r(0) = 0
                Ya[3] - Ya[1],           # v matches
            ]
        )


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


def initial_guess(
    sys: FoldedSystem, n_nodes: int = 401, rtol: float = 1e-6, atol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray]:
    """Guess by one outward integration of the folded field from the fold.

    The guess only seeds Newton on the ``n_nodes`` starting mesh, whose own
    discretization error is larger than 1e-6, so tighter integration buys no
    Newton iteration; the solver refines the mesh and the answer from there.
    The guess is the route's own integration, not the integrating-factor
    profile, so the coupled route stays independent of the route it is
    checked against.
    """
    u = sys.cfg.u_mid
    traj = ivp_solve(
        IvpProblem(rhs=sys.rhs, t_span=(0.0, 1.0), y0=[u, 0.0, u, 0.0],
                   rtol=rtol, atol=atol)
    )
    mesh = np.linspace(0.0, 1.0, n_nodes)
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
    max_nodes: int = 20000,
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
        rhs=sys.rhs, bc=sys.bc, initial_mesh=mesh, initial_guess=Y0, tol=tol
    )
    sol = bvp_solve(problem, max_nodes=max_nodes)

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
        "mesh_iterations": sol.mesh_iterations,
        "mesh_size": int(sol.mesh.size),
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
    recomputed at every step.  On failure the step is bisected once; if the
    bisected step also fails, :class:`ContinuationStalled` carries the chain
    computed so far.
    """
    u_plus = cfg0.u_plus
    points: list[CoupledResult] = []

    def _solve_at(um: float, seed: CoupledResult | None) -> CoupledResult:
        s = rankine_hugoniot_speed(f, um, u_plus)
        cfg = normalize_to_standing(f, um, u_plus, s)
        freq = neutral_zero(cfg, f, xi0)
        guess = None if seed is None else _rescaled_guess(seed, cfg)
        return solve_coupled(
            cfg, f, freq, L, n_out, guess=guess, tol=tol,
            tail_tol=tail_tol, decay_tol=decay_tol,
        )

    for k, um in enumerate(u_minus_values):
        prev = points[-1] if points else None
        try:
            res = _solve_at(float(um), prev)
        except ValidationError as exc:
            if prev is None:
                raise  # first point: configuration-level problem
            # an inadmissible parameter value stalls the chain outright
            raise ContinuationStalled(k, points, exc) from exc
        except SolverError as exc:
            if prev is None:
                raise ContinuationStalled(k, points, exc) from exc
            # one automatic bisection of the parameter step
            try:
                um_mid = 0.5 * (prev.config.u_minus + float(um))
                res = _solve_at(float(um), _solve_at(um_mid, prev))
            except SolverError as exc2:
                raise ContinuationStalled(k, points, exc2) from exc2
        points.append(res)
    return points
