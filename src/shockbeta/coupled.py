"""One-shot boundary-value computation of profile and correction together.

The autonomous field

    ubar' = P(ubar),
    v'    = a1s(ubar) v + F(ubar),

with P the factored profile field of :class:`ShockConfig` and F the forcing
of the model (:func:`shockbeta.model.forcing`), has equilibria
(u-, 0) and (u+, 0) at a neutral frequency; the desired solution is the
heteroclinic connection between them; v is the whole correction (see
:class:`AuxiliarySolution`).  The domain [-L, L] is folded: right
and left halves are rescaled onto [0, 1] as U_r(t) = U(L t), U_l(t) = U(-L t),
giving a 4-dimensional system closed by four fold conditions: the midpoint
phase condition, two matching conditions, and the origin normalization
v(0) = 0.  Both far ends then fall into the attracting equilibria on their
own; the tail residual is verified after the solve.  The initial guess comes
from integrating the field outward from the fold.  A parameter sweep seeds
each point with the previous converged solution, each folded half stretched
in t by the ratio new/old of its end rate |a1s(u+-)| and the profile
stretched in amplitude to the new end states, sampled at the nodes and
collocation stages of the same 401-node starting mesh as a cold solve
(:func:`_rescaled_guess`): the solver then refines from the mesh a cold
solve starts on, so each point ends on its cold solve's mesh, with its sweep
count, its Newton iterations (one per sweep along ``configs/sine_scan.cfg``)
and its beta.  Since every fold condition sits at t = 0, the solution on
[-L, L] is a wider one cut at |x| = L: a study over several L solves the
widest first and seeds each narrower L with the wider solution cut there,
converged stages included (:func:`_narrowed_guess`), which usually leaves
one sweep of at most one Newton step.
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
    forcing,
    forcing_slope,
    standing_shock,
)
from .numerics import (
    BvpProblem, BvpSolution, IvpProblem, bvp_solve, ivp_solve, sample_collocation,
)
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
        self._signs = np.array([self.L, -self.L])

    def field(self, U: np.ndarray) -> np.ndarray:
        """Unfolded autonomous field on states U = (ubar, v)."""
        ubar, v = U
        a = self.cfg.a1_shifted(ubar)
        du = self.cfg.profile_field(ubar)
        dv = a * v + forcing(self.flux, self.freq, self.cfg.u_minus, ubar)
        return np.stack([np.asarray(du, dtype=float), dv])

    def rhs(self, t, Y: np.ndarray) -> np.ndarray:
        """L times the field on the right half and -L times it on the left.

        One :meth:`field` evaluation covers both halves, stacked as
        (component, half, ...); ``Y`` is one state (4,) or states (4, n).
        """
        halves = Y.reshape(2, 2, *Y.shape[1:]).swapaxes(0, 1)
        signs = self._signs.reshape(2, *(1,) * (Y.ndim - 1))
        return (self.field(halves) * signs).swapaxes(0, 1).reshape(Y.shape)

    def jac(self, t, Y: np.ndarray) -> np.ndarray:
        """Jacobian of :meth:`rhs`, shape (n, 4, 4), both halves in one pass.

        Each half is lower triangular, with sign +1 on the right half and -1
        on the left: d ubar'/d ubar = d v'/d v = a1s(ubar) = P'(ubar), and
        d v'/d ubar = P''(ubar) v + F'(ubar).  The halves do not couple and
        ubar' does not depend on v, so with the state ordered (ubar_r, v_r,
        ubar_l, v_l) the whole matrix is lower triangular, as
        :class:`BvpProblem` requires.
        """
        ubar, v = Y[0::2], Y[1::2]  # (half, n)
        signs = self._signs[:, None]
        a = signs * self.cfg.a1_shifted(ubar)
        dv_du = signs * (
            self.cfg.d2p(ubar) * v + forcing_slope(self.flux, self.freq, ubar)
        )
        J = np.zeros((Y.shape[1], 4, 4))
        diag = np.arange(4)
        J[:, diag, diag] = np.repeat(a, 2, axis=0).T
        J[:, (1, 3), (0, 2)] = dv_du.T
        return J

    @property
    def bc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The four fold conditions as ``Ba y(0) + Bb y(1) = g``.

        All four sit at the fold t = 0, so Bb = 0, and they fix the state
        there (Ba is nonsingular): the far ends need no condition, since
        both halves fall into their attracting end states.  This is the
        form :class:`BvpProblem` requires.
        """
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

    The guess holds node values only; the solver takes its collocation
    stages from the guess's quintic extension.  It only seeds Newton on the
    401-node starting mesh, which converges from it in one iteration, so
    tighter integration buys no Newton iteration; the solver refines the
    mesh and the answer from there.  The guess is the route's own
    integration, not the integrating-factor profile, so the coupled route
    stays independent of the route it is checked against.
    """
    u = sys.cfg.u_mid
    traj = ivp_solve(
        IvpProblem(rhs=sys.rhs, t_span=(0.0, 1.0), y0=[u, 0.0, u, 0.0],
                   rtol=_GUESS_RTOL, atol=_GUESS_ATOL)
    )
    mesh = _starting_mesh()
    return mesh, traj(mesh).T


def _starting_mesh() -> np.ndarray:
    """The uniform mesh of a cold solve, and of each new continuation point."""
    return np.linspace(0.0, 1.0, _GUESS_NODES)


def solve_coupled(
    cfg: ShockConfig,
    f: FluxModel,
    freq: NeutralFrequency,
    L: float,
    n_out: int,
    guess: tuple | None = None,
    tol: float = 1e-8,
    tail_tol: float = DEFAULT_TAIL_TOL,
    decay_tol: float = DEFAULT_DECAY_TOL,
) -> CoupledResult:
    """Solve the folded system and sample the unfolded pair on a uniform grid.

    ``n_out`` is the interval count of the output grid on [-L, L].  v is
    linear in xi0 and solved per unit |xi0|, so the mesh, the collocation
    tolerance and the fold check do not depend on xi0.  A guess is a (mesh,
    state, stages) triple on [0, 1], v per unit |xi0|, whose stages (the
    values at the interior collocation points, or None) are as
    :class:`BvpProblem` takes them; by default it is generated by outward
    integration.
    """
    scale, unit = freq.per_unit()
    sys = FoldedSystem(cfg=cfg, flux=f, freq=unit, L=float(L))
    mesh, Y0, S0 = (*initial_guess(sys), None) if guess is None else guess

    problem = BvpProblem(
        rhs=sys.rhs, jac=sys.jac, bc=sys.bc, initial_mesh=mesh,
        initial_guess=Y0, initial_stages=S0, tol=tol,
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
    k = int(np.searchsorted(x, 0.0))  # x[:k] < 0 <= x[k:]
    ubar, v = np.concatenate([
        sol.interpolant(-x[:k] / L, rows=slice(2, 4)),  # the left half
        sol.interpolant(x[k:] / L, rows=slice(0, 2)),
    ], axis=1)
    v *= scale
    profile = ProfileSolution(
        config=cfg,
        grid=grid,
        ubar=ubar,
        ubar_prime=cfg.profile_field(ubar),
        exact=False,
        diagnostics={"method": "coupled"},
    )
    _check_profile(profile, tail_tol)

    aux = AuxiliarySolution(
        grid=grid,
        v=v,
        method=AuxMethod.COUPLED,
        freq=freq,
        diagnostics={
            "method": "coupled",
            "residual_norm": sol.residual_norm,
            "newton_iters": sol.newton_iters,
            "mesh_size": int(sol.mesh.size),
            "mesh_sweeps": sol.mesh_iterations,
            "newton_per_sweep": list(sol.newton_per_sweep),
            "fold_mismatch": fold_mismatch,
        },
    )
    aux.check_decay(decay_tol)
    return CoupledResult(profile=profile, aux=aux, bvp=sol)


def _rescaled_guess(
    prev: CoupledResult, cfg_new: ShockConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Previous folded solution as a guess, stretched to the new states.

    The guess is the previous quintic extension sampled at the nodes and
    stages of the starting mesh of a cold solve, so the solver refines from
    where a cold solve does and its first sweep's Newton iterations run on
    401 nodes, not on the previous point's hundreds; the point then ends on
    its cold solve's mesh.  Each folded half is stretched in t by its
    end-rate ratio r = |a1s(u_end)| new / old (u+ for the right half, u-
    for the left): it is sampled at t r, so the layer narrows as its end
    rate grows (the extension's last piece is constant, so t r > 1 reads the
    end state).  The profile is then stretched in amplitude about u+.  For a
    quadratic f1 this maps u_mid - d tanh(a d x) onto the new point's
    profile exactly; v, linear given the profile, then takes one Newton
    iteration, as it does from a cold guess.  A point whose left state
    equals the previous one is already solved and keeps the converged mesh
    and stages.
    """
    if cfg_new.u_minus == prev.config.u_minus:
        mesh, Y, S = prev.bvp.mesh.copy(), prev.bvp.y.copy(), prev.bvp.stages.copy()
    else:
        mesh = _starting_mesh()
        interp = prev.bvp.interpolant
        r_plus, r_minus = cfg_new.end_rates / prev.config.end_rates
        Y, S = sample_collocation(
            lambda t: np.concatenate([interp(t * r_plus, rows=slice(0, 2)),
                                      interp(t * r_minus, rows=slice(2, 4))]),
            mesh,
        )
    up = cfg_new.u_plus
    ratio = (cfg_new.u_minus - up) / (prev.config.u_minus - up)
    for Z in (Y, S):
        Z[::2] = up + (Z[::2] - up) * ratio  # the ubar rows of both halves
    return mesh, Y, S


def _narrowed_guess(
    wide: CoupledResult, L: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A wider folded solution cut at |x| = L, as a guess on [0, 1].

    The fold conditions all sit at t = 0, so the solution on [-L, L] is the
    wider one cut at t = r = L / L_wide.  The guess keeps the wider mesh below
    r, adds r as a node and rescales onto [0, 1].  The kept intervals keep
    their converged nodes and stages: their collocation equations do not
    change, since the rescaled width times L is the same.  The last interval
    takes its end value and stages from the wider quintic extension.  When r
    lies nearer to the node below it than to the node above, that node is
    dropped: the last interval is then at least half the wider mesh's
    interval there, never a sliver of rounding width on which no Newton step
    can reduce the residual.
    """
    mesh = wide.bvp.mesh
    r = L / wide.profile.grid.L
    k = int(np.searchsorted(mesh, r))  # mesh[k - 1] < r <= mesh[k]
    if k > 1 and r - mesh[k - 1] < mesh[k] - r:
        k -= 1
    ends, last = sample_collocation(wide.bvp.interpolant, np.array([mesh[k - 1], r]))
    return (np.append(mesh[:k] / r, 1.0),
            np.concatenate([wide.bvp.y[:, :k], ends[:, 1:]], axis=1),
            np.concatenate([wide.bvp.stages[:, :, :k - 1], last], axis=2))


def continuation_scan(
    cfg0: ShockConfig,
    f: FluxModel,
    xi0: float,
    u_minus_values,
    L: float,
    n_out: int,
    tol: float = 1e-8,
    freq0: NeutralFrequency | None = None,
) -> list[CoupledResult]:
    """Sweep the left state, reusing each solution as the next guess.

    The right state is taken from ``cfg0``; speed and neutral frequency are
    recomputed at every step.  ``freq0``, when given, is the neutral
    frequency of ``cfg0``, and ``cfg0`` is then the first point's shock,
    already built (its left state must be the first value).  Every point the
    chain reaches is built, and the grid checked against the steepest,
    before the first solve; the chain stalls at an inadmissible later point.
    On a solver failure the step is bisected once; if the bisected step also
    fails, :class:`ContinuationStalled` carries the chain computed so far.
    """
    shocks, inadmissible = [], None
    values = [float(um) for um in u_minus_values]
    if freq0 is not None:
        if not values or values[0] != cfg0.u_minus:
            raise ValidationError(
                f"the first left state {values[:1]} is not cfg0's {cfg0.u_minus}"
            )
        shocks.append((cfg0, freq0))
        values = values[1:]
    for um in values:
        try:
            shocks.append(standing_shock(f, um, cfg0.u_plus, xi0))
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
        return solve_coupled(cfg, f, freq, L, n_out, guess=guess, tol=tol)

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
                mid = standing_shock(f, um_mid, cfg0.u_plus, xi0)
                res = _solve_at(shock, _solve_at(mid, prev))
            except SolverError as exc2:
                raise ContinuationStalled(k, points, exc2) from exc2
        points.append(res)
    if inadmissible is not None:
        raise ContinuationStalled(len(shocks), points, inadmissible) from inadmissible
    return points
