"""Closed-form construction of the auxiliary correction from a profile.

Writing y = w + i v, the correction equations split into

    w' = a1(ubar) w,
    v' = a1(ubar) v + tau0 (ubar - u_minus) + xi0 (f2(ubar) - f2(u_minus)),

so with M(x) = exp(-int_0^x a1(ubar)) both reduce to perfect derivatives.
The origin values w(0) = v(0) = 0 that define beta give w = 0 and
v = M^-1 int_0^x M F.  Only cumulative quadrature of profile samples is
needed; no differential equation is solved.

Overflow guard: M grows like exp(|a1(u+-)| L), so the code keeps the log of M
and assembles v through one-interval exponential ratios (algebraically the
same cumulative-Simpson formula, evaluated via exp of log differences).
"""

from __future__ import annotations

import warnings

import numpy as np

from .auxiliary import DEFAULT_DECAY_TOL, AuxMethod, AuxiliarySolution
from .errors import GridMismatch, QuadratureDegraded, ValidationError
from .model import FluxModel, NeutralFrequency
from .numerics import cumquad_simpson
from .profile import ProfileSolution


def forcing(
    f: FluxModel, freq: NeutralFrequency, profile: ProfileSolution
) -> np.ndarray:
    """Inhomogeneity tau0*(ubar - u_minus) + xi0*(f2(ubar) - f2(u_minus))."""
    um = profile.config.u_minus
    return freq.tau0 * (profile.ubar - um) + freq.xi0 * (
        np.asarray(f.f2(profile.ubar)) - f.f2(um)
    )


def log_integrating_factor(profile: ProfileSolution) -> np.ndarray:
    """Exponent E(x) = int_0^x a1(ubar(z)) dz by cumulative Simpson.

    The integrating factor is M = exp(-E); the log form never overflows.
    Requires an even interval count so the anchor x = 0 is a node.
    """
    grid = profile.grid
    ic = grid.origin_index
    a = np.asarray(profile.config.a1_shifted(profile.ubar))
    E = np.empty_like(a)
    E[ic:] = cumquad_simpson(a[ic:], grid.h)
    E[: ic + 1] = -cumquad_simpson(a[ic::-1], grid.h)[::-1]
    return E


def _weighted_march(E: np.ndarray, F: np.ndarray, h: float) -> np.ndarray:
    """March v_j = exp(E_j) * int_0^{x_j} exp(-E) F from the anchor.

    Equivalent to applying cumulative Simpson (trapezoid correction on odd
    prefixes) to exp(-E) F and multiplying by exp(E_j), but every exponential
    appears only as a one- or two-interval ratio, so nothing overflows.
    """
    n = E.size
    v = np.zeros(n)
    e1 = np.exp(E[1:] - E[:-1])
    for j in range(1, n):
        r1 = e1[j - 1]
        if j % 2 == 1:
            v[j] = r1 * v[j - 1] + (h / 2.0) * (r1 * F[j - 1] + F[j])
        else:
            r2 = r1 * e1[j - 2]
            v[j] = r2 * v[j - 2] + (h / 3.0) * (
                r2 * F[j - 2] + 4.0 * r1 * F[j - 1] + F[j]
            )
    return v


def solve_v_if(
    profile: ProfileSolution,
    forcing_samples: np.ndarray,
    warn_estimate_tol: float | None = 1e-6,
) -> np.ndarray:
    """v(x) = M(x)^-1 int_0^x M F, inner integral by cumulative Simpson.

    Emits a :class:`QuadratureDegraded` warning when a coarsened re-evaluation
    suggests the grid underresolves the integrals.
    """
    F = np.asarray(forcing_samples)
    if F.shape != profile.ubar.shape:
        raise GridMismatch("forcing samples do not match the profile grid")
    grid = profile.grid
    ic = grid.origin_index
    E = log_integrating_factor(profile)

    v = np.empty_like(F)
    v[ic:] = _weighted_march(E[ic:], F[ic:], grid.h)
    v[: ic + 1] = _weighted_march(E[ic::-1], F[ic::-1], -grid.h)[::-1]

    if warn_estimate_tol is not None and grid.N % 4 == 0:
        Ec, Fc = E[::2], F[::2]
        icc = ic // 2
        vc = np.empty_like(Fc)
        vc[icc:] = _weighted_march(Ec[icc:], Fc[icc:], 2 * grid.h)
        vc[: icc + 1] = _weighted_march(Ec[icc::-1], Fc[icc::-1], -2 * grid.h)[::-1]
        est = np.max(np.abs(v[::2] - vc)) / 15.0
        if est > warn_estimate_tol:
            warnings.warn(
                f"cumulative Simpson refinement estimate {est:.3e} exceeds "
                f"{warn_estimate_tol:.1e}; grid may be too coarse",
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
    """Assemble the correction (w, v), with w(0) = v(0) = 0, on the profile grid."""
    if profile.grid.N % 2 != 0:
        raise ValidationError("integrating-factor method needs an even interval count")
    aux = AuxiliarySolution(
        grid=profile.grid,
        w=np.zeros_like(profile.ubar),
        v=solve_v_if(profile, forcing(f, freq, profile)),
        method=AuxMethod.INTEGRATING_FACTOR,
        freq=freq,
    )
    aux.diagnostics["tail_magnitude"] = aux.tail_magnitudes()
    if decay_tol is not None:
        aux.check_decay(decay_tol)
    return aux
