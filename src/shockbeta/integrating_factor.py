"""Closed-form construction of the auxiliary correction from a profile.

The correction v (see :class:`AuxiliarySolution`) solves

    v' = a1(ubar) v + F(ubar),

with F the forcing of the model (:func:`shockbeta.model.forcing`).  With the
integrating factor M(x) = exp(-int_0^x a1(ubar)) it reduces to a perfect
derivative, and the origin value v(0) = 0 that defines beta gives
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
from .model import FluxModel, NeutralFrequency, forcing
from .numerics import cumquad_simpson
from .profile import ProfileSolution

# Refinement estimate of v above which the grid is reported as too coarse.
_WARN_ESTIMATE_TOL = 1e-6


def _anchored(R: np.ndarray, up: np.ndarray, h: float, ic: int) -> np.ndarray:
    """up * int_{x_ic}^x R at every node, by cumulative Simpson."""
    C = cumquad_simpson(R, h)
    C -= C[ic]
    C *= up
    return C


def solve_v_if(profile: ProfileSolution, forcing_samples: np.ndarray) -> np.ndarray:
    """v(x) = ubar'(x) int_0^x F / ubar', the integral by cumulative Simpson.

    On every grid, a :class:`QuadratureDegraded` warning is emitted when a
    re-evaluation on the every-other-node grid through the origin estimates
    the error of v above ``_WARN_ESTIMATE_TOL`` (per unit xi0 from
    :func:`solve_auxiliary_if`, which passes the forcing per unit xi0).
    """
    F = np.asarray(forcing_samples)
    if F.shape != profile.ubar.shape:
        raise GridMismatch("forcing samples do not match the profile grid")
    grid = profile.grid
    up = profile.ubar_prime
    R = np.divide(F, up, out=np.zeros_like(up), where=up != 0.0)
    ic = grid.origin_index
    v = _anchored(R, up, grid.h, ic)

    s = ic % 2  # the odd nodes when N/2 is odd
    vc = _anchored(R[s::2], up[s::2], 2 * grid.h, ic // 2)
    est = np.max(np.abs(v[s::2] - vc)) / 15.0
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
    decay_tol: float = DEFAULT_DECAY_TOL,
) -> AuxiliarySolution:
    """Assemble the correction v with v(0) = 0 on the profile grid.

    v is linear in xi0, so it is solved per unit |xi0| and scaled back: the
    refinement warning of :func:`solve_v_if` then judges the grid, not xi0.
    """
    scale, unit = freq.per_unit()
    aux = AuxiliarySolution(
        grid=profile.grid,
        v=scale * solve_v_if(
            profile, forcing(f, unit, profile.config.u_minus, profile.ubar)
        ),
        method=AuxMethod.INTEGRATING_FACTOR,
        freq=freq,
    )
    aux.check_decay(decay_tol)
    return aux
