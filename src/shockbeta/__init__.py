"""Refined stability coefficient of planar viscous shock profiles.

For a scalar conservation law with viscosity in two space dimensions, the
package computes the standing shock profile, the auxiliary correction v at
a neutral frequency of the Lopatinskii determinant (by an
integrating-factor formula and by a coupled boundary-value solve), and from
them the real stability coefficient beta whose sign signals the transition
to instability of the viscous front.
"""

from .auxiliary import AuxMethod
from .beta import beta_convergence_study, compute_beta
from .coupled import continuation_scan, solve_coupled
from .integrating_factor import solve_auxiliary_if
from .model import (
    burgers_flux,
    custom_flux,
    neutral_zero,
    normalize_to_standing,
    quadratic_transverse_flux,
    sine_transverse_flux,
)
from .profile import Grid, solve_profile

__version__ = "0.1.0"

__all__ = [
    "AuxMethod",
    "Grid",
    "beta_convergence_study",
    "burgers_flux",
    "compute_beta",
    "continuation_scan",
    "custom_flux",
    "neutral_zero",
    "normalize_to_standing",
    "quadratic_transverse_flux",
    "sine_transverse_flux",
    "solve_auxiliary_if",
    "solve_coupled",
    "solve_profile",
]
