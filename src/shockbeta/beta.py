"""Assembly of the refined stability coefficient from profile and correction.

The coefficient is the ratio of two frequency derivatives of the viscous
spectral determinant at a neutral zero; both reduce to computable pieces:

    beta = integral / (u+ - u-),

    integral = int 2 (i tau0 + i xi0 a2(ubar)) (w + i v) + 2 xi0^2 ubar' dx,

with ubar' inserted through the profile equation (no differencing).  The
transversality factor of the determinant cancels in the ratio and never
enters the computation.  sgn Re beta > 0 is the necessary condition for weak
viscous stability; the sign is reported as 0 when |Re beta| falls below the
resolution threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .auxiliary import AuxiliarySolution, AuxMethod
from .coupled import solve_coupled
from .errors import GridMismatch, SolverError, ValidationError
from .integrating_factor import solve_auxiliary_if
from .model import FluxModel, NeutralFrequency, ShockConfig
from .numerics import quad_simpson, quad_trapezoid
from .profile import Grid, ProfileSolution, check_resolution, solve_profile

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
    beta: complex
    integral: complex
    delta_lambda: float
    sign_re_beta: int
    L: float
    method: AuxMethod
    quadrature: BetaQuadrature
    diagnostics: dict = field(default_factory=dict)


def _integrand(
    f: FluxModel, profile: ProfileSolution, aux: AuxiliarySolution
) -> np.ndarray:
    if profile.grid.x.shape != aux.grid.x.shape or not np.array_equal(
        profile.grid.x, aux.grid.x
    ):
        raise GridMismatch("profile and correction are sampled on different grids")
    freq = aux.freq
    factor = 1j * freq.tau0 + 1j * freq.xi0 * np.asarray(f.a2(profile.ubar))
    return 2.0 * factor * aux.y + 2.0 * freq.xi0**2 * profile.ubar_prime


def _quad(g: np.ndarray, h: float, simpson: bool) -> complex:
    return complex(quad_simpson(g, h) if simpson else quad_trapezoid(g, h))


def compute_beta(
    f: FluxModel,
    profile: ProfileSolution,
    aux: AuxiliarySolution,
    quadrature: BetaQuadrature = BetaQuadrature.TRAPEZOID,
) -> BetaResult:
    """beta = integral / [u] with its sign report and quadrature diagnostics."""
    g = _integrand(f, profile, aux)
    h = profile.grid.h
    simpson = quadrature is BetaQuadrature.SIMPSON
    integral = _quad(g, h, simpson)
    delta_lambda = profile.config.u_jump
    beta = integral / delta_lambda
    re = beta.real
    sign = 0 if abs(re) < SIGN_THRESHOLD else (1 if re > 0 else -1)

    diagnostics = {
        "integrand_tail": float(max(abs(g[0]), abs(g[-1]))),
        "aux_tail": aux.tail_magnitudes(),
        "profile_tails": profile.tail_residuals(),
    }
    diagnostics.update(
        (k, aux.diagnostics[k]) for k in _SOLVER_COUNTERS if k in aux.diagnostics
    )
    if simpson or profile.grid.N % 2 == 0:  # other rule, same samples
        diagnostics["quadrature_cross_difference"] = abs(
            _quad(g, h, not simpson) - integral
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


def check_even_N(
    N: int, quadrature: BetaQuadrature | None = None, methods=()
) -> None:
    """Before any solve: Simpson's rule and the ``if`` route need an even N.

    ``quadrature`` is None for a command that computes no beta.
    """
    need = None
    if quadrature is BetaQuadrature.SIMPSON:
        need = "Simpson's rule needs an even number of intervals"
    elif AuxMethod.INTEGRATING_FACTOR in methods:
        need = "the if route needs a grid node at the origin"
    if N % 2 and need:
        raise ValidationError(f"field 'N': {N} is odd, but {need}")


def solve_pair(
    cfg: ShockConfig,
    f: FluxModel,
    freq: NeutralFrequency,
    method: AuxMethod,
    L: float,
    N: int,
    tol: float,
    tail_tol: float,
    decay_tol: float | None,
) -> tuple[ProfileSolution, AuxiliarySolution]:
    """Profile and correction on the uniform (L, N) grid by one method.

    ``tol`` is the collocation tolerance of the coupled route; the tail gates
    apply to both routes (``decay_tol=None`` skips the correction gate).
    """
    if method is AuxMethod.INTEGRATING_FACTOR:
        profile = solve_profile(cfg, Grid.make(L, N), tail_tol=tail_tol)
        return profile, solve_auxiliary_if(f, freq, profile, decay_tol=decay_tol)
    res = solve_coupled(
        cfg, f, freq, L, N, tol=tol, tail_tol=tail_tol, decay_tol=decay_tol
    )
    return res.profile, res.aux


@dataclass
class BetaStudy:
    """Per-(method, L) results of a truncation convergence study."""

    L_values: list
    methods: list
    results: dict = field(default_factory=dict)   # (method, L) -> BetaResult
    failures: dict = field(default_factory=dict)  # (method, L) -> error string

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
    tol: float = 1e-8,
    quadrature: BetaQuadrature = BetaQuadrature.TRAPEZOID,
    tail_tol: float = STUDY_TAIL_TOL,
    decay_tol: float = STUDY_DECAY_TOL,
) -> BetaStudy:
    """Recompute beta over a list of truncation half-widths.

    Solver failures are recorded per entry (the rest of the table survives),
    and sign stability across the table is reported by the returned study; a
    :class:`ValidationError` propagates.  An odd ``N`` for ``if`` or Simpson,
    and a grid too coarse for the profile layer at any L, are rejected before
    the first solve.
    """
    methods = [AuxMethod(m) for m in methods]
    check_even_N(N, quadrature, methods)
    for L in sorted(L_values, reverse=True):  # the widest L names an N all L admit
        check_resolution(cfg, L, N)
    study = BetaStudy(L_values=list(L_values), methods=methods)
    for L in L_values:
        for method in methods:
            try:
                profile, aux = solve_pair(
                    cfg, f, freq, method, L, N, tol, tail_tol, decay_tol
                )
                study.results[(method, L)] = compute_beta(f, profile, aux, quadrature)
            except SolverError as exc:
                study.failures[(method, L)] = f"{type(exc).__name__}: {exc}"
    return study
