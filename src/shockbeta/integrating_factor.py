"""Closed-form construction of the auxiliary correction from a profile.

Writing y = w + i v, the correction equations split into

    w' = a1(ubar) w,
    v' = a1(ubar) v + F,  F = tau0 (ubar - u_minus) + xi0 (f2(ubar) - f2(u_minus)),

so with the integrating factor M(x) = exp(-int_0^x a1(ubar)) both reduce to
perfect derivatives.  The origin values w(0) = v(0) = 0 that define beta give
w = 0, which is not computed (see :class:`AuxiliarySolution`), and
v = M^-1 int_0^x M F.  The profile equation gives ubar'' = a1(ubar) ubar', so
M = ubar'(0) / ubar'(x) exactly, for every flux, and

    v(x) = ubar'(x) int_0^x F / ubar'.

That is one cumulative Simpson of R = F/ubar' over the whole grid, less its
value at the origin, times ubar': no exponential is formed, nothing overflows
on long domains, and v(0) = 0 exactly.  The profile field is factored, so
ubar' = 0 exactly where the profile has reached an end state; R is taken as
0 there, and v = 0.
"""

from __future__ import annotations

import warnings

import numpy as np

from .auxiliary import DEFAULT_DECAY_TOL, AuxMethod, AuxiliarySolution
from .errors import GridMismatch, QuadratureDegraded
from .model import FluxModel, NeutralFrequency
from .numerics import cumquad_simpson
from .profile import ProfileSolution

# Refinement estimate of v above which the grid is reported as too coarse.
_WARN_ESTIMATE_TOL = 1e-6


def forcing(
    f: FluxModel, freq: NeutralFrequency, profile: ProfileSolution
) -> np.ndarray:
    """Inhomogeneity tau0*(ubar - u_minus) + xi0*(f2(ubar) - f2(u_minus))."""
    um = profile.config.u_minus
    return freq.tau0 * (profile.ubar - um) + freq.xi0 * (
        np.asarray(f.f2(profile.ubar)) - f.f2(um)
    )


def _anchored(R: np.ndarray, up: np.ndarray, h: float, ic: int) -> np.ndarray:
    """up * int_{x_ic}^x R at every node, by cumulative Simpson."""
    C = cumquad_simpson(R, h)
    C -= C[ic]
    C *= up
    return C


def solve_v_if(profile: ProfileSolution, forcing_samples: np.ndarray) -> np.ndarray:
    """v(x) = ubar'(x) int_0^x F / ubar', the integral by cumulative Simpson.

    Emits a :class:`QuadratureDegraded` warning when a coarsened re-evaluation
    estimates the error of v above ``_WARN_ESTIMATE_TOL``.
    """
    F = np.asarray(forcing_samples)
    if F.shape != profile.ubar.shape:
        raise GridMismatch("forcing samples do not match the profile grid")
    grid = profile.grid
    up = profile.ubar_prime
    R = np.divide(F, up, out=np.zeros_like(up), where=up != 0.0)
    ic = grid.origin_index
    v = _anchored(R, up, grid.h, ic)

    if grid.N % 4 == 0:
        vc = _anchored(R[::2], up[::2], 2 * grid.h, ic // 2)
        est = np.max(np.abs(v[::2] - vc)) / 15.0
        if est > _WARN_ESTIMATE_TOL:
            warnings.warn(
                f"cumulative Simpson refinement estimate {est:.3e} exceeds "
                f"{_WARN_ESTIMATE_TOL:.1e}; grid may be too coarse",
                QuadratureDegraded,
                stacklevel=2,
            )
    return v


def solve_auxiliary_if(
    f: FluxModel,
    freq: NeutralFrequency,
    profile: ProfileSolution,
    decay_tol: float | None = DEFAULT_DECAY_TOL,
) -> AuxiliarySolution:
    """Assemble the correction, v with v(0) = 0 (w = 0), on an even-N profile grid."""
    aux = AuxiliarySolution(
        grid=profile.grid,
        v=solve_v_if(profile, forcing(f, freq, profile)),
        method=AuxMethod.INTEGRATING_FACTOR,
        freq=freq,
    )
    aux.diagnostics["tail_magnitude"] = aux.tail_magnitudes()
    if decay_tol is not None:
        aux.check_decay(decay_tol)
    return aux
