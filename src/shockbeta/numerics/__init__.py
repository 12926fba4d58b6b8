"""Self-contained numerical kernels: IVP integration, quadrature, BVP collocation."""

from .bvp import BvpProblem, BvpSolution, HermiteInterpolant, bvp_solve
from .ivp import IvpProblem, Trajectory, ivp_solve
from .quadrature import cumquad_simpson, quad_gregory, quad_simpson, quad_trapezoid

__all__ = [
    "BvpProblem",
    "BvpSolution",
    "HermiteInterpolant",
    "IvpProblem",
    "Trajectory",
    "bvp_solve",
    "cumquad_simpson",
    "ivp_solve",
    "quad_gregory",
    "quad_simpson",
    "quad_trapezoid",
]
