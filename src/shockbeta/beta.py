"""Assembly of the refined stability coefficient from profile and correction.

The coefficient is the ratio of two frequency derivatives of the viscous
spectral determinant at a neutral zero; both reduce to computable pieces:

    beta = integral / (u+ - u-),

    integral = int 2 xi0^2 ubar' - 2 F'(ubar) v dx,

with ubar' inserted through the profile equation (no differencing) and F' the
slope of the model's forcing (:func:`shockbeta.model.forcing_slope`).  This is
the paper's int 2 (i tau0 + i xi0 a2(ubar)) y + 2 xi0^2 ubar' dx with the
correction y = i v, so beta is real.  The transversality factor of the
determinant cancels in the ratio and never enters the computation.

The coupled route integrates this paper form.  The integrating-factor route
builds v = ubar' C with C = int_0^x R and R = F/ubar' (0 where ubar' = 0), so
F'(ubar) v = C dF/dx, and the integral is taken by parts, exactly on [-L, L]:

    integral = 2 xi0^2 (ubar(L) - ubar(-L)) - 2 (R v)(L) + 2 (R v)(-L)
               + 2 int F R dx.

v enters only at its two ends, where R v is the F C its construction
anchored, so the cumulative-quadrature error of v inside the domain does not
reach beta.  Either integrand is summed by the end-corrected trapezoid rule
(:func:`shockbeta.numerics.quad_gregory`, ``trapezoid``) or by Simpson's.

sgn beta > 0 is the necessary condition for weak viscous stability.  beta
is xi0^2 times a number fixed by the shock, so the sign is reported as 0
when |beta| is at most ``SIGN_THRESHOLD xi0^2``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .auxiliary import DEFAULT_DECAY_TOL, AuxiliarySolution, AuxMethod
from .coupled import CoupledResult, solve_coupled, tanh_guess, unfold_coupled
from .errors import GridMismatch, SolverError, ValidationError
from .integrating_factor import solve_auxiliary_if
from .model import FluxModel, NeutralFrequency, ShockConfig, forcing, forcing_slope
from .numerics import quad_gregory, quad_simpson
from .profile import DEFAULT_TAIL_TOL, Grid, ProfileSolution
from .profile import check_resolution, solve_profile

# |beta| / xi0^2 at or below which the sign is reported as 0
SIGN_THRESHOLD = 1e-10

# Deterministic counters of the coupled route's collocation solve that a
# result carries on from its correction: no timings, so outputs stay
# bit-identical across runs.
_SOLVER_COUNTERS = ("mesh_size", "mesh_sweeps", "newton_per_sweep")

# Tail gates for convergence studies: narrow domains (small L) legitimately
# carry visible truncation, which is exactly what the study documents, so the
# per-L solves run with relaxed gates and the magnitudes land in diagnostics.
STUDY_TAIL_TOL = 1e-3
STUDY_DECAY_TOL = 1e-2


class BetaQuadrature(str, enum.Enum):
    TRAPEZOID = "trapezoid"
    SIMPSON = "simpson"


@dataclass
class BetaResult:
    beta: float
    integral: float
    delta_lambda: float
    sign_re_beta: int
    L: float
    method: AuxMethod
    quadrature: BetaQuadrature
    diagnostics: dict = field(default_factory=dict)


def _integrand(
    f: FluxModel, profile: ProfileSolution, aux: AuxiliarySolution
) -> tuple[float, np.ndarray]:
    """(end terms, integrand) whose sum is the route's integral (module doc)."""
    if profile.grid != aux.grid:
        raise GridMismatch("profile and correction are sampled on different grids")
    freq = aux.freq
    up = profile.ubar_prime
    if aux.method is AuxMethod.COUPLED:
        factor = 2.0 * forcing_slope(f, freq, profile.ubar)
        return 0.0, 2.0 * freq.xi0**2 * up - factor * aux.v
    ubar = profile.ubar
    F = forcing(f, freq, profile.config.u_minus, ubar)
    R = np.divide(F, up, out=np.zeros_like(up), where=up != 0.0)
    Rv = R[[0, -1]] * aux.v[[0, -1]]
    ends = 2.0 * freq.xi0**2 * (ubar[-1] - ubar[0]) - 2.0 * (Rv[1] - Rv[0])
    return float(ends), 2.0 * F * R


def _quad(g: np.ndarray, h: float, simpson: bool) -> float:
    return float(quad_simpson(g, h) if simpson else quad_gregory(g, h))


def compute_beta(
    f: FluxModel,
    profile: ProfileSolution,
    aux: AuxiliarySolution,
    quadrature: BetaQuadrature = BetaQuadrature.TRAPEZOID,
) -> BetaResult:
    """beta = integral / [u] with its sign report and quadrature diagnostics.

    The route is the correction's ``method``: the paper form for ``coupled``,
    by parts for ``if`` (module doc).  ``integrand_tail`` and
    ``quadrature_cross_difference`` are of the integrand the rule sums.
    """
    quadrature = BetaQuadrature(quadrature)
    ends, g = _integrand(f, profile, aux)
    h = profile.grid.h
    simpson = quadrature is BetaQuadrature.SIMPSON
    body = _quad(g, h, simpson)
    integral = ends + body
    delta_lambda = profile.config.u_jump
    beta = integral / delta_lambda
    sign = 0 if abs(beta) <= SIGN_THRESHOLD * aux.freq.xi0**2 else int(np.sign(beta))

    diagnostics = {
        "integrand_tail": float(max(abs(g[0]), abs(g[-1]))),
        "aux_tail": aux.tail_magnitudes(),
        "profile_tails": profile.tail_residuals(),
    }
    diagnostics.update(
        (k, aux.diagnostics[k]) for k in _SOLVER_COUNTERS if k in aux.diagnostics
    )
    diagnostics["quadrature_cross_difference"] = abs(  # other rule, same samples
        _quad(g, h, not simpson) - body
    )
    return BetaResult(
        beta=beta,
        integral=integral,
        delta_lambda=delta_lambda,
        sign_re_beta=sign,
        L=profile.grid.L,
        method=aux.method,
        quadrature=quadrature,
        diagnostics=diagnostics,
    )


def solve_pair(
    cfg: ShockConfig,
    f: FluxModel,
    freq: NeutralFrequency,
    method: AuxMethod,
    L: float,
    N: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
    decay_tol: float = DEFAULT_DECAY_TOL,
    wider: CoupledResult | None = None,
    guess: Callable | None = None,
) -> tuple[ProfileSolution, AuxiliarySolution, CoupledResult | None]:
    """Profile and correction on the uniform (L, N) grid by one method.

    The tail gates apply to both routes.  The third element is the coupled
    route's whole result (None for ``if``).  Passed back as ``wider``, a
    coupled result solved on a half-width of at least L, the coupled pair is
    sampled from its folded solution, with no new solve.  Otherwise the
    coupled route solves from ``guess``, as :func:`solve_coupled` takes it
    (None: the outward integration).
    """
    if method is AuxMethod.INTEGRATING_FACTOR:
        profile = solve_profile(cfg, Grid.make(L, N), tail_tol=tail_tol)
        return profile, solve_auxiliary_if(f, freq, profile, decay_tol=decay_tol), None
    if wider is None:
        res = solve_coupled(cfg, f, freq, L, N, guess=guess, tail_tol=tail_tol,
                            decay_tol=decay_tol)
    else:
        res = unfold_coupled(wider.bvp, wider.aux.diagnostics["fold_mismatch"],
                             cfg, freq, wider.L_solved, L, N, tail_tol, decay_tol)
    return res.profile, res.aux, res


@dataclass
class BetaStudy:
    """Per-(method, L) results of a truncation convergence study."""

    L_values: list
    methods: list
    results: dict = field(default_factory=dict)   # (method, L) -> BetaResult
    failures: dict = field(default_factory=dict)  # (method, L) -> SolverError

    def sign_stable(self) -> bool:
        signs = {r.sign_re_beta for r in self.results.values()}
        return len(signs) == 1 and len(self.failures) == 0

    def row(self, method: AuxMethod) -> list:
        return [self.results.get((method, L)) for L in self.L_values]


def beta_convergence_study(
    cfg: ShockConfig,
    f: FluxModel,
    freq: NeutralFrequency,
    L_values,
    methods=(AuxMethod.INTEGRATING_FACTOR, AuxMethod.COUPLED),
    N: int = 4000,
    quadrature: BetaQuadrature = BetaQuadrature.TRAPEZOID,
) -> BetaStudy:
    """Recompute beta over a list of truncation half-widths.

    The half-widths are taken widest first.  The widest coupled entry is
    solved from the closed-form guess (:func:`shockbeta.coupled.tanh_guess`),
    as every point of a scan is.  The fold conditions fix the folded state
    at the fold, so the coupled solution on a narrower L is a wider one
    restricted: each narrower coupled entry is sampled from the nearest
    wider coupled entry that succeeded, with no new solve, and carries that
    solve's counters; an entry with no wider success solves from the same
    guess.  The order of ``L_values`` changes no result.

    Each entry is gated by ``STUDY_TAIL_TOL`` and ``STUDY_DECAY_TOL``.  Solver
    failures are recorded per entry (the rest of the table survives), and sign
    stability across the table is reported by the returned study; a
    :class:`ValidationError` propagates.  A grid that :meth:`Grid.check`
    refuses (an odd ``N`` among them), an L listed twice and a grid too
    coarse for the profile layer at any L are rejected before the first solve.
    """
    methods = [AuxMethod(m) for m in methods]
    quadrature = BetaQuadrature(quadrature)
    widest_first = sorted(L_values, reverse=True)
    for k, L in enumerate(widest_first):  # the widest L names an N all L admit
        if L in widest_first[:k]:
            raise ValidationError(f"field 'L': {L:g} is listed twice")
        check_resolution(cfg, L, N)
    study = BetaStudy(L_values=list(L_values), methods=methods)
    wider = None  # the narrowest coupled result so far
    for L in widest_first:
        for method in methods:
            try:
                profile, aux, coupled = solve_pair(
                    cfg, f, freq, method, L, N, STUDY_TAIL_TOL, STUDY_DECAY_TOL,
                    wider=wider, guess=tanh_guess,
                )
                study.results[(method, L)] = compute_beta(f, profile, aux, quadrature)
            except SolverError as exc:
                study.failures[(method, L)] = exc
            else:
                if coupled is not None:
                    wider = coupled
    return study
