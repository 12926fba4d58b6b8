"""Closed-form construction of the auxiliary correction from a profile.

Writing y = w + i v, the correction equations split into

    w' = a1(ubar) w,
    v' = a1(ubar) v + tau0 (ubar - u_minus) + xi0 (f2(ubar) - f2(u_minus)),

so with M(x) = exp(-int_0^x a1(ubar)) both reduce to perfect derivatives.
The origin values w(0) = v(0) = 0 that define beta give w = 0, which is not
computed (see :class:`AuxiliarySolution`), and v = M^-1 int_0^x M F.  Only
cumulative quadrature of profile samples is needed; no differential equation
is solved.

Both halves are read outward from the anchor, folded side by side (row 0
for x >= 0, row 1 for x <= 0), so each integral is one cumulative Simpson
call on a two-row array.

Overflow guard: M grows like exp(|a1(u+-)| L), so the code keeps the log of M
and marches v in blocks re-anchored at their first node, each block sized so
that no exponential exceeds exp(_MAX_EXPONENT).
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


# On the left half, read outward in s = -x, d/dx = -d/ds: integrands of x
# change sign there.
_OUTWARD = np.array([[1.0], [-1.0]])

# Largest exponent one march block evaluates; exp overflows near 709.
_MAX_EXPONENT = 64.0


def _fold(a: np.ndarray, ic: int) -> np.ndarray:
    """Samples read outward from node ``ic``: row 0 rightward, row 1 leftward."""
    return np.stack([a[ic:], a[ic::-1]])


def _unfold(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_fold`."""
    return np.concatenate([y[1, :0:-1], y[0]])


def log_integrating_factor(profile: ProfileSolution) -> np.ndarray:
    """Exponent E(x) = int_0^x a1(ubar(z)) dz by cumulative Simpson.

    The integrating factor is M = exp(-E); the log form never overflows.
    Requires an even interval count so the anchor x = 0 is a node.
    """
    grid = profile.grid
    a = np.asarray(profile.config.a1_shifted(profile.ubar))
    return _unfold(cumquad_simpson(_OUTWARD * _fold(a, grid.origin_index), grid.h))


def _weighted_march(E: np.ndarray, F: np.ndarray, h: float) -> np.ndarray:
    """v = exp(E) * int_0 exp(-E) F along the last axis, from the first node.

    Cumulative Simpson of the weighted integrand, taken in blocks of an even
    interval count, each re-anchored at its first node (e = E - E_s), so that
    no block exponentiates more than ``_MAX_EXPONENT``.
    """
    n = E.shape[-1]
    width = np.max(np.abs(np.diff(E, axis=-1)))  # largest exponent step
    m = 2 * max(1, int(_MAX_EXPONENT / (2.0 * width))) if width > 0.0 else n
    v = np.zeros_like(F)
    for s in range(0, n - 1, m):
        block = slice(s, s + m + 1)
        e = E[..., block] - E[..., s, None]
        v[..., block] = np.exp(e) * (
            v[..., s, None] + cumquad_simpson(np.exp(-e) * F[..., block], h)
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
    E = _fold(log_integrating_factor(profile), ic)
    F = _OUTWARD * _fold(F, ic)
    v = _weighted_march(E, F, grid.h)

    if warn_estimate_tol is not None and grid.N % 4 == 0:
        vc = _weighted_march(E[:, ::2], F[:, ::2], 2 * grid.h)
        est = np.max(np.abs(v[:, ::2] - vc)) / 15.0
        if est > warn_estimate_tol:
            warnings.warn(
                f"cumulative Simpson refinement estimate {est:.3e} exceeds "
                f"{warn_estimate_tol:.1e}; grid may be too coarse",
                QuadratureDegraded,
                stacklevel=2,
            )
    return _unfold(v)


def solve_auxiliary_if(
    f: FluxModel,
    freq: NeutralFrequency,
    profile: ProfileSolution,
    decay_tol: float | None = DEFAULT_DECAY_TOL,
) -> AuxiliarySolution:
    """Assemble the correction, v with v(0) = 0 (w = 0), on the profile grid."""
    if profile.grid.N % 2 != 0:
        raise ValidationError("integrating-factor method needs an even interval count")
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
