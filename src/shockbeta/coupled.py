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
own; the tail residual is verified after the solve.  A solve starts from a
guess that is a function of t, read at the nodes and collocation stages of
its first mesh: by default the field integrated outward from the fold at
the loose tolerance rtol 1e-3 (:func:`initial_guess`), which the ``aux`` and
``compare`` commands keep; Newton converges quadratically from it, and the
answer does not depend on the guess.
A parameter sweep solves each point alone, and a beta study its widest L,
from the closed-form pair of :func:`shockbeta.profile.tanh_pair` read
folded (:func:`tanh_guess`), so no point depends on its neighbours; a
repeated left state reuses an earlier point.  The first mesh is uniform
with 401 nodes, except for a quadratic f1 whose closed-form pair is not
exact (the sine flux): there the solution has the pair's layer but not its
values, the uniform mesh needs a second sweep to cluster nodes in that
layer, and the solve starts instead on 701 nodes graded to the pair
(:func:`first_mesh`), whichever the guess.  The four fold
conditions fix the state at t = 0, so the folded problem is an
initial-value problem, and the solution on [-L, L] is a wider one
restricted to |x| <= L: a study over several L solves the widest alone and
samples each narrower L from it (:func:`unfold_coupled`).  The fold is
checked once per solve, in :func:`solve_coupled`, and every sampling of
that solve reads the recorded mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .auxiliary import DEFAULT_DECAY_TOL, AuxMethod, AuxiliarySolution
from .errors import SolverError, ValidationError
from .model import (
    FluxModel,
    NeutralFrequency,
    ShockConfig,
    forcing,
    forcing_slope,
    standing_shock,
)
from .numerics import (
    BvpProblem, BvpSolution, IvpProblem, Trajectory, bvp_solve, ivp_solve,
)
from .profile import (
    DEFAULT_TAIL_TOL, Grid, ProfileSolution, _check_profile, check_resolution,
    closed_form_is_exact, tanh_pair,
)

_FOLD_TOL = 1e-10
_COLLOCATION_TOL = 1e-8  # residual tolerance of a coupled solve and of a scan
# Uniform starting mesh.
_GUESS_NODES = 401
# Graded first mesh (:func:`graded_mesh`).  Its node count: on the six points
# of configs/sine_scan.cfg (L = 20) 701 nodes converge in one sweep with every
# beta within 4.9e-13 of a tol = 1e-11 solve; 601 nodes left them 1.2e-12 off
# and 501 nodes 3.7e-12.  The slope's weight in the arc-length monitor: 0.25
# needs a second sweep at one of the eight left states 0.8, 1.0, ..., 1.5, 1.6
# at L = 40, where 0.05 needs one at four; 1.0 left the L = 20 betas 1.1e-12
# off.  Sampling the pair at 1001 to 8001 points gave the same sweeps and the
# same betas to two figures.
_GRADED_NODES = 701
_ARC_WEIGHT = 0.25
_ARC_SAMPLES = 2001
# Tolerances of the outward guess, whose trade :func:`initial_guess` gives.
# rtol 1e-2 (atol 1e-4) moved the exact case's beta by 2.5e-13.
_GUESS_RTOL = 1e-3
_GUESS_ATOL = 1e-5


@dataclass
class FoldedSystem:
    """Doubled and rescaled field on [0, 1] with its fold conditions."""

    cfg: ShockConfig
    flux: FluxModel
    freq: NeutralFrequency
    L: float

    def __post_init__(self):
        self._signs = np.array([self.L, -self.L])
        self._row_signs = np.repeat(self._signs, 2)

    def field(self, U, out):
        """Unfolded autonomous field on states U = (ubar, v), as (ubar', v').

        The two components are written in place into ``out`` (a pair of
        arrays shaped like ubar), which is returned.
        """
        ubar, v = U
        du, dv = out
        du[...] = self.cfg.profile_field(ubar)
        np.multiply(self.cfg.a1_shifted(ubar), v, out=dv)
        dv += forcing(self.flux, self.freq, self.cfg.u_minus, ubar)
        return out

    def rhs(self, t, Y: np.ndarray) -> np.ndarray:
        """L times the field on the right half and -L times it on the left.

        One :meth:`field` evaluation covers both halves: it reads the ubar
        rows (0, 2) and v rows (1, 3) of ``Y`` and writes the same rows of
        the result, which then takes the row signs (L, L, -L, -L).  ``Y``
        is one state (4,) or states (4, n).
        """
        out = np.empty_like(Y)
        self.field((Y[0::2], Y[1::2]), out=(out[0::2], out[1::2]))
        out *= self._row_signs if Y.ndim == 1 else self._row_signs[:, None]
        return out

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
    def y0(self) -> np.ndarray:
        """The state at the fold t = 0 that the four fold conditions fix.

        The phase pins ubar_r(0) = u_mid, the origin normalization v_r(0) = 0,
        and both halves match across the fold.  The far ends need no
        condition, since both halves fall into their attracting end states.
        """
        u = self.cfg.u_mid
        return np.array([u, 0.0, u, 0.0])


@dataclass
class CoupledResult:
    """The unfolded pair, its folded solve, and the half-width solved on.

    ``L_solved`` is at least the output grid's half-width: a narrower grid
    is sampled from a wider solve.
    """

    profile: ProfileSolution
    aux: AuxiliarySolution
    bvp: BvpSolution
    L_solved: float

    @property
    def config(self) -> ShockConfig:
        return self.profile.config

    @property
    def freq(self) -> NeutralFrequency:
        return self.aux.freq


def initial_guess(sys: FoldedSystem) -> Trajectory:
    """Guess by one outward integration of the folded field from the fold.

    The guess is the dense trajectory itself, which the solver reads at the
    nodes and stages of the first mesh (:func:`first_mesh`).  It only seeds
    Newton there, so it is integrated loosely, at rtol 1e-3 and atol 1e-5:
    for the sine point u- = 1 of configs/sine_scan.cfg it takes 22 DP5 steps
    and 140 field evaluations, where rtol 1e-6 took 68 and 458, and for the
    exact case it lies within 4.7e-5 (ubar) and 5.8e-4 (v) of the exact pair.
    Newton converges quadratically from it, so the first sweep takes two
    iterations where the tighter guess took one, on the same mesh: at 701
    nodes the extra iteration costs about 1 ms of Newton assembly and linear
    solve against about 5 ms for the 46 fewer steps.  The sine, exact and
    burgers solves end within 2.4e-15 of their :func:`tanh_guess` solves.
    """
    return ivp_solve(
        IvpProblem(rhs=sys.rhs, t_span=(0.0, 1.0), y0=sys.y0,
                   rtol=_GUESS_RTOL, atol=_GUESS_ATOL)
    )


def tanh_guess(sys: FoldedSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Guess by the closed-form pair, read folded at x = L t and x = -L t.

    Each half is :func:`shockbeta.profile.tanh_pair` on its side of the
    origin, so it meets the end state it approaches at that state's rate
    k = delta Q(u_end) = |a1s(u_end)|/2, with v per unit |xi0|.  Where it is
    the exact pair is decided by
    :func:`shockbeta.profile.closed_form_is_exact`.
    """
    ends = sys._signs[:, None]  # x = +-L t

    def guess(t):
        pair = tanh_pair(sys.flux, sys.cfg, sys.freq, ends * t)  # (ubar, v) by half
        return np.stack(pair, axis=1).reshape(4, t.size)  # (ubar_r, v_r, ubar_l, v_l)

    return guess


def graded_mesh(sys: FoldedSystem) -> np.ndarray:
    """``_GRADED_NODES`` nodes equidistributing the arc length of the tanh pair.

    The monitor is sqrt(1 + w |Z'(t)|^2), w = ``_ARC_WEIGHT``, with Z the
    folded pair of :func:`tanh_guess`: its arc length is that of the polyline
    through ``_ARC_SAMPLES`` uniform samples of (t, sqrt(w) Z(t)), and the
    nodes cut it into equal parts (de Boor's equidistribution; Ascher,
    Mattheij & Russell, ch. 9), so they crowd in the layer at the fold.
    """
    t = np.linspace(0.0, 1.0, _ARC_SAMPLES)
    dZ = np.diff(tanh_guess(sys)(t), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(np.sqrt(
        np.diff(t) ** 2 + _ARC_WEIGHT * np.einsum("rk,rk->k", dZ, dZ)))])
    return np.interp(np.linspace(0.0, arc[-1], _GRADED_NODES), arc, t)


def first_mesh(sys: FoldedSystem) -> np.ndarray:
    """The mesh a solve starts on: graded where the tanh pair is close but inexact.

    For a quadratic f1 the tanh profile is exact, and where the f2 makes the
    pair inexact (:func:`shockbeta.profile.closed_form_is_exact`) the solution
    still has the pair's layer, which :func:`graded_mesh` resolves in one
    sweep where the uniform mesh needs two.  Every other solve starts on the
    uniform ``_GUESS_NODES`` mesh: an exact pair passes there in one sweep,
    and a cubic f1 started graded moved a beta study's narrowed entries
    2.6e-12 from their own solves, where the uniform start keeps them within
    2e-12.
    """
    if len(sys.cfg.q_coeffs) == 1 and not closed_form_is_exact(sys.flux, sys.cfg):
        return graded_mesh(sys)
    return np.linspace(0.0, 1.0, _GUESS_NODES)


def solve_coupled(
    cfg: ShockConfig,
    f: FluxModel,
    freq: NeutralFrequency,
    L: float,
    n_out: int,
    guess: Callable[[FoldedSystem], Callable[[np.ndarray], np.ndarray]] | None = None,
    tol: float = _COLLOCATION_TOL,
    tail_tol: float = DEFAULT_TAIL_TOL,
    decay_tol: float = DEFAULT_DECAY_TOL,
) -> CoupledResult:
    """Solve the folded system and sample the unfolded pair on a uniform grid.

    ``n_out`` is the interval count of the output grid on [-L, L].  v is
    linear in xi0 and solved per unit |xi0|, so the mesh, the collocation
    tolerance and the fold check do not depend on xi0.  The solve starts on
    :func:`first_mesh`, whichever the guess: graded to the closed-form pair
    for a quadratic f1 whose pair is not exact (the sine flux), where it saves
    the second mesh sweep, else the uniform ``_GUESS_NODES`` mesh.
    ``guess`` maps the :class:`FoldedSystem` to a function of t of shape (k,)
    in [0, 1] with folded states of shape (4, k), v per unit |xi0|, as
    :class:`BvpProblem` takes it: :func:`tanh_guess`, which scans and beta
    studies pass, or by default the outward integration
    (:func:`initial_guess`), looked up when called.
    """
    _, unit = freq.per_unit()
    sys = FoldedSystem(cfg=cfg, flux=f, freq=unit, L=float(L))
    problem = BvpProblem(
        rhs=sys.rhs, jac=sys.jac, y0=sys.y0,
        initial_mesh=first_mesh(sys),
        initial_guess=(initial_guess if guess is None else guess)(sys), tol=tol,
    )
    sol = bvp_solve(problem)
    at_fold = sol.interpolant(0.0)
    fold_mismatch = float(np.max(np.abs(at_fold[:2] - at_fold[2:])))
    if fold_mismatch > _FOLD_TOL:
        raise SolverError(
            f"fold duplicate mismatch {fold_mismatch:.3e} > {_FOLD_TOL}"
        )
    return unfold_coupled(sol, fold_mismatch, cfg, freq, float(L), L, n_out,
                          tail_tol, decay_tol)


def unfold_coupled(
    sol: BvpSolution,
    fold_mismatch: float,
    cfg: ShockConfig,
    freq: NeutralFrequency,
    L_solved: float,
    L: float,
    n_out: int,
    tail_tol: float,
    decay_tol: float,
) -> CoupledResult:
    """Sample a folded solution on the uniform (L, n_out) grid and gate it.

    ``sol`` solves the folded system of half-width ``L_solved`` >= L, v per
    unit |xi0|.  The fold conditions fix the state at t = 0, so the pair on
    [-L, L] is that solution read at t = |x| / L_solved, the left half before
    :attr:`Grid.origin_index`.  The fold was checked once, when ``sol`` was
    solved (:func:`solve_coupled`), and ``fold_mismatch`` is the mismatch it
    recorded, read here, not measured again.  The tails and decay of v are
    checked on the sampled pair; v is scaled by |xi0|; the diagnostics are
    those of ``sol``.
    """
    grid = Grid.make(L, n_out)
    x = grid.x
    k = grid.origin_index
    ubar, v = np.concatenate([
        sol.interpolant(-x[:k] / L_solved, rows=slice(2, 4)),  # the left half
        sol.interpolant(x[k:] / L_solved, rows=slice(0, 2)),
    ], axis=1)
    v *= freq.per_unit()[0]
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
            "residual_norm": sol.residual_norm,
            "newton_iters": sol.newton_iters,
            "mesh_size": int(sol.mesh.size),
            "mesh_sweeps": sol.mesh_iterations,
            "newton_per_sweep": list(sol.newton_per_sweep),
            "fold_mismatch": fold_mismatch,
        },
    )
    aux.check_decay(decay_tol)
    return CoupledResult(profile=profile, aux=aux, bvp=sol, L_solved=L_solved)


def continuation_scan(
    cfg0: ShockConfig,
    f: FluxModel,
    xi0: float,
    u_minus_values,
    L: float,
    n_out: int,
    tol: float = _COLLOCATION_TOL,
    freq0: NeutralFrequency | None = None,
) -> list[CoupledResult | ValidationError | SolverError]:
    """Sweep the left state, each point solved alone from :func:`tanh_guess`.

    The right state is taken from ``cfg0``; speed and neutral frequency are
    recomputed at every point.  ``freq0``, when given, is the neutral
    frequency of ``cfg0``, and ``cfg0`` is then the first point's shock,
    already built (its left state must be the first value).  Returns one
    entry per left state: its result, or the error the point raised, the
    :class:`ValidationError` of an inadmissible shock or the
    :class:`SolverError` of a failed solve; an inadmissible first point
    raises.  Every point is built, and the grid checked against the steepest
    admissible one, before the first solve.  A left state equal to an
    earlier point's repeats that point's entry, with no build and no solve.
    """
    values = [float(um) for um in u_minus_values]
    if freq0 is not None and values[:1] != [cfg0.u_minus]:
        raise ValidationError(
            f"the first left state {values[:1]} is not cfg0's {cfg0.u_minus}"
        )
    # each distinct left state -> its shock, then its entry
    by_state: dict = {} if freq0 is None else {cfg0.u_minus: (cfg0, freq0)}
    for um in values:
        if um not in by_state:
            try:
                by_state[um] = standing_shock(f, um, cfg0.u_plus, xi0)
            except ValidationError as exc:
                if not by_state:
                    raise  # first point: configuration-level problem
                by_state[um] = exc
    # the first point is admissible, or has raised
    admissible = [s[0] for s in by_state.values() if not isinstance(s, ValidationError)]
    check_resolution(max(admissible, key=lambda cfg: cfg.layer_rate), L, n_out)

    for um, shock in by_state.items():
        if not isinstance(shock, ValidationError):
            cfg, freq = shock
            try:
                by_state[um] = solve_coupled(cfg, f, freq, L, n_out,
                                             guess=tanh_guess, tol=tol)
            except SolverError as exc:
                by_state[um] = exc
    return [by_state[um] for um in values]
