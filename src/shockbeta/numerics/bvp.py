"""Two-point boundary-value solver: 3-stage Lobatto IIIA collocation.

The discretization is the classical implicit Simpson scheme: a C1 cubic
Hermite spline is required to satisfy the ODE at every mesh node and at every
interval midpoint (fourth order at the nodes).  The nonlinear collocation
equations are solved by a damped Newton iteration with finite-difference
Jacobians; intervals whose scaled residual exceeds the tolerance are split
and the solve is repeated warm-started from the interpolant.

The Newton matrix is block lower-bidiagonal: interval i couples only y_i and
y_{i+1}, and the m boundary rows couple y_0 with y_{n-1}.  It is solved by
block condensation (Ascher, Mattheij & Russell, *Numerical Solution of
Boundary Value Problems for ODEs*, ch. 7), in numpy alone: every interval
block is solved for the affine map y_{i+1} = M_i y_i + c_i, a prefix scan
composes the maps into y_k = Phi_k y_0 + c_k, and one m x m system imposes
the boundary conditions.  Marching from x = 0 is stable when the linearized
flow contracts towards x = 1, as the folded shock system does on both halves
(a Lax shock has a1(u+) < 0 < a1(u-)).  A problem whose propagator norm
max_k |Phi_k| exceeds 1/sqrt(eps), such as a dichotomic one with a growing
mode, is refused with :class:`SingularJacobian`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import (
    BadProblem,
    MeshLimitExceeded,
    NewtonDivergence,
    SingularJacobian,
)

_SQRT_EPS = np.sqrt(np.finfo(float).eps)
# Largest propagator norm the forward march accepts: beyond it the march
# would amplify rounding by more than half of the working digits.
_MAX_PROPAGATOR_NORM = 1.0 / _SQRT_EPS
# Interior abscissae of the 5-point Lobatto rule (residual sampling points
# between the collocation points) and their quadrature weight.
_RES_THETA = (0.5 - np.sqrt(21.0) / 14.0, 0.5 + np.sqrt(21.0) / 14.0)
_RES_WEIGHT = 49.0 / 180.0


@dataclass
class BvpProblem:
    """First-order system ``y' = rhs(x, y)`` on [0, 1] with two-point BCs.

    ``rhs`` is vectorized: it maps abscissae of shape ``(n,)`` and states of
    shape ``(m, n)`` to derivatives of shape ``(m, n)``.  ``bc(ya, yb)``
    returns the m boundary residuals.  ``initial_guess`` holds state samples
    of shape ``(m, n)`` on ``initial_mesh``.
    """

    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bc: Callable[[np.ndarray, np.ndarray], np.ndarray]
    initial_mesh: np.ndarray
    initial_guess: np.ndarray
    tol: float = 1e-8

    def __post_init__(self):
        self.initial_mesh = np.asarray(self.initial_mesh, dtype=float)
        self.initial_guess = np.asarray(self.initial_guess, dtype=float)
        x = self.initial_mesh
        if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
            raise BadProblem("mesh must be strictly increasing")
        if x[0] != 0.0 or x[-1] != 1.0:
            raise BadProblem("mesh must run from 0 to 1")
        if self.initial_guess.ndim != 2 or self.initial_guess.shape[1] != x.size:
            raise BadProblem("initial_guess must have shape (m, len(mesh))")
        if not np.all(np.isfinite(self.initial_guess)):
            raise BadProblem("initial_guess must be finite")
        if self.tol <= 0:
            raise BadProblem("tol must be positive")
        m = self.initial_guess.shape[0]
        res = np.atleast_1d(
            np.asarray(self.bc(self.initial_guess[:, 0], self.initial_guess[:, -1]))
        )
        if res.shape != (m,):
            raise BadProblem(
                f"bc returned {res.shape[0] if res.ndim == 1 else res.shape} "
                f"residuals for a system of dimension {m}"
            )


class HermiteInterpolant:
    """Piecewise-cubic Hermite interpolant of (mesh, y, y'); C1 by construction."""

    def __init__(self, x: np.ndarray, y: np.ndarray, yp: np.ndarray):
        self.x = x
        self.y = y
        self.yp = yp

    def _locate(self, xq):
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        idx = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        h = self.x[idx + 1] - self.x[idx]
        theta = (xq - self.x[idx]) / h
        return idx, h, theta

    def __call__(self, xq):
        scalar = np.ndim(xq) == 0
        idx, h, t = self._locate(xq)
        t2, t3 = t * t, t * t * t
        out = (
            self.y[:, idx] * (2 * t3 - 3 * t2 + 1)
            + self.y[:, idx + 1] * (-2 * t3 + 3 * t2)
            + h * self.yp[:, idx] * (t3 - 2 * t2 + t)
            + h * self.yp[:, idx + 1] * (t3 - t2)
        )
        return out[:, 0] if scalar else out

    def derivative(self, xq):
        scalar = np.ndim(xq) == 0
        idx, h, t = self._locate(xq)
        t2 = t * t
        out = (
            (self.y[:, idx + 1] - self.y[:, idx]) * (6 * t - 6 * t2) / h
            + self.yp[:, idx] * (3 * t2 - 4 * t + 1)
            + self.yp[:, idx + 1] * (3 * t2 - 2 * t)
        )
        return out[:, 0] if scalar else out


@dataclass
class BvpSolution:
    """Converged collocation solution with its C1 interpolant."""

    mesh: np.ndarray
    y: np.ndarray
    yp: np.ndarray
    interpolant: HermiteInterpolant
    residual_norm: float
    newton_iters: int
    mesh_iterations: int
    newton_per_sweep: list[int]


def _collocation_residual(rhs, x, Y):
    """Residual densities (Simpson form divided by h) on every interval.

    The 1/h scaling keeps the Newton convergence test meaningful on strongly
    graded meshes: without it, equations on tiny intervals look converged at
    any state because the raw Simpson residual carries a factor h.
    """
    h = np.diff(x)
    f = rhs(x, Y)
    y_lo, y_hi = Y[:, :-1], Y[:, 1:]
    f_lo, f_hi = f[:, :-1], f[:, 1:]
    y_mid = 0.5 * (y_lo + y_hi) - (h / 8.0) * (f_hi - f_lo)
    x_mid = x[:-1] + 0.5 * h
    f_mid = rhs(x_mid, y_mid)
    phi = (y_hi - y_lo) / h - (f_lo + 4.0 * f_mid + f_hi) / 6.0
    return phi, f, f_mid, y_mid, x_mid


def _fd_jacobian(rhs, x, Y):
    """One-sided FD Jacobian of the vectorized rhs at every column of Y.

    Returns shape (npts, m, m): J[p, r, c] = d rhs_r / d y_c at point p.
    """
    m, n = Y.shape
    f0 = rhs(x, Y)
    J = np.empty((n, m, m))
    for c in range(m):
        step = _SQRT_EPS * (1.0 + np.abs(Y[c]))
        Yp = Y.copy()
        Yp[c] += step
        J[:, :, c] = ((rhs(x, Yp) - f0) / step).T
    return J


def _fd_bc_jacobian(bc, ya, yb):
    m = ya.size
    g0 = np.asarray(bc(ya, yb))
    dga = np.empty((m, m))
    dgb = np.empty((m, m))
    for c in range(m):
        step = _SQRT_EPS * (1.0 + abs(ya[c]))
        yp = ya.copy()
        yp[c] += step
        dga[:, c] = (np.asarray(bc(yp, yb)) - g0) / step
        step = _SQRT_EPS * (1.0 + abs(yb[c]))
        yp = yb.copy()
        yp[c] += step
        dgb[:, c] = (np.asarray(bc(ya, yp)) - g0) / step
    return dga, dgb


def _assemble_jacobian(rhs, bc, x, Y, f, f_mid, y_mid, x_mid):
    """Blocks of the Newton matrix of the collocation system.

    Returns ``(A, B, dga, dgb)``: A and B of shape (n-1, m, m) are the
    derivatives of interval i's residual with respect to y_i and y_{i+1};
    dga and dgb those of the boundary residuals with respect to y_0, y_{n-1}.
    """
    m = Y.shape[0]
    h = np.diff(x)

    Jn = _fd_jacobian(rhs, x, Y)
    Jm = _fd_jacobian(rhs, x_mid, y_mid)
    dga, dgb = _fd_bc_jacobian(bc, Y[:, 0], Y[:, -1])

    eye = np.eye(m)
    hcol = h[:, None, None]
    Jn_lo, Jn_hi = Jn[:-1], Jn[1:]
    # d(phi_i)/d(y_i) and d(phi_i)/d(y_{i+1}) for the 1/h-scaled residuals.
    A = (
        -eye / hcol
        - Jn_lo / 6.0
        - (2.0 / 3.0) * (Jm @ (0.5 * eye + (hcol / 8.0) * Jn_lo))
    )
    B = (
        eye / hcol
        - Jn_hi / 6.0
        - (2.0 / 3.0) * (Jm @ (0.5 * eye - (hcol / 8.0) * Jn_hi))
    )
    return A, B, dga, dgb


def _block_solve(jac, R):
    """Newton step dY, of shape (m, n), solving ``J dY = -R`` by condensation.

    ``jac`` holds the blocks of :func:`_assemble_jacobian`; ``R`` is the
    residual of :func:`_full_residual` (interval residuals node-major, then
    the m boundary residuals).  Three steps:

    1. one batched solve of B_i [M_i | c_i] = [-A_i | -phi_i] gives the
       affine maps dy_{i+1} = M_i dy_i + c_i;
    2. a ceil(log2 n)-level prefix scan of the augmented (m+1) x (m+1) maps
       gives [dy_k; 1] = P_k [dy_0; 1], with P_k = [[Phi_k, c_k], [0, 1]];
    3. one m x m solve of (dga + dgb Phi_{n-1}) dy_0 = -g - dgb c_{n-1}
       imposes the boundary conditions, and one batched product gives every
       dy_k.

    This is the whole factor-and-solve of one Newton iteration.  It is bound
    to the module name ``splu``, which ``perfbench/tracing.py`` wraps, so the
    traced ``bvp.splu_s`` is the time of this linear algebra and
    ``bvp.splu_calls`` counts Newton linear solves.

    Raises :class:`SingularJacobian` if a block or the boundary system is
    singular, or if max_k |Phi_k| (infinity norm) exceeds 1/sqrt(eps): the
    forward march is then unstable.
    """
    A, B, dga, dgb = jac
    nint, m, _ = A.shape
    AR = np.concatenate([-A, -R[:-m].reshape(nint, m, 1)], axis=2)
    P = np.zeros((nint + 1, m + 1, m + 1))
    P[0] = np.eye(m + 1)
    try:
        P[1:, :m] = np.linalg.solve(B, AR)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"collocation block: {exc}") from exc
    P[1:, m, m] = 1.0
    # Hillis-Steele scan: after the level of width d, P[k] is the product
    # of the (up to) 2d maps ending at interval k-1; P[0] = I is neutral.
    d = 1
    while d <= nint:
        P[d:] = P[d:] @ P[:-d]
        d *= 2
    norm = float(np.max(np.sum(np.abs(P[:, :m, :m]), axis=2)))
    if norm > _MAX_PROPAGATOR_NORM:
        raise SingularJacobian(
            f"propagator norm {norm:.3e} exceeds {_MAX_PROPAGATOR_NORM:.3e}: "
            "the linearized problem does not contract away from x = 0"
        )
    phi, c = P[-1, :m, :m], P[-1, :m, m]
    try:
        dy0 = np.linalg.solve(dga + dgb @ phi, -R[-m:] - dgb @ c)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"boundary system: {exc}") from exc
    return (P[:, :m] @ np.append(dy0, 1.0)).T


# perfbench/tracing.py wraps the Newton linear solve under this name.
splu = _block_solve


def _full_residual(rhs, bc, x, Y):
    phi, f, f_mid, y_mid, x_mid = _collocation_residual(rhs, x, Y)
    g = np.asarray(bc(Y[:, 0], Y[:, -1]))
    R = np.concatenate([phi.T.ravel(), g])
    return R, f, f_mid, y_mid, x_mid


def _newton(rhs, bc, x, Y, max_newton, max_backtracks):
    """Damped Newton on the collocation system; returns (Y, f, iterations)."""
    R, f, f_mid, y_mid, x_mid = _full_residual(rhs, bc, x, Y)
    if not np.all(np.isfinite(R)):
        raise NewtonDivergence("residual is not finite at the initial guess")
    iters = 0
    for _ in range(max_newton):
        # residual densities have the units of the rhs
        scale = 1.0 + np.max(np.abs(Y)) + np.max(np.abs(f))
        norm = np.max(np.abs(R))
        if norm <= 1e-11 * scale:
            return Y, f, iters
        jac = _assemble_jacobian(rhs, bc, x, Y, f, f_mid, y_mid, x_mid)
        dY = splu(jac, R)
        if not np.all(np.isfinite(dY)):
            raise SingularJacobian("Newton linear solve produced non-finite step")

        lam = 1.0
        for _ in range(max_backtracks + 1):
            Y_try = Y + lam * dY
            R_try, f_t, f_mid_t, y_mid_t, x_mid = _full_residual(rhs, bc, x, Y_try)
            norm_try = np.max(np.abs(R_try)) if np.all(np.isfinite(R_try)) else np.inf
            if norm_try < (1.0 - 1e-4 * lam) * norm:
                break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                f"no residual decrease after {max_backtracks} step halvings "
                f"(|R|={norm:.3e})"
            )
        Y, R, f, f_mid, y_mid = Y_try, R_try, f_t, f_mid_t, y_mid_t
        iters += 1
        if np.max(np.abs(lam * dY)) <= 1e-14 * scale:
            return Y, f, iters
    raise NewtonDivergence(f"not converged after {max_newton} Newton iterations")


def _estimate_residuals(rhs, x, Y, f):
    """Scaled collocation residual estimate on every interval.

    Samples the Hermite interpolant at the two interior points of the 5-point
    Lobatto rule (the collocation residual vanishes at the nodes and the
    midpoint) and returns a quadrature-weighted rms per interval.
    """
    h = np.diff(x)
    est_sq = np.zeros(x.size - 1)
    y_lo, y_hi = Y[:, :-1], Y[:, 1:]
    f_lo, f_hi = f[:, :-1], f[:, 1:]
    for t in _RES_THETA:
        t2, t3 = t * t, t ** 3
        S = (
            y_lo * (2 * t3 - 3 * t2 + 1)
            + y_hi * (-2 * t3 + 3 * t2)
            + h * f_lo * (t3 - 2 * t2 + t)
            + h * f_hi * (t3 - t2)
        )
        Sp = (
            (y_hi - y_lo) * (6 * t - 6 * t2) / h
            + f_lo * (3 * t2 - 4 * t + 1)
            + f_hi * (3 * t2 - 2 * t)
        )
        fq = rhs(x[:-1] + t * h, S)
        rel = (Sp - fq) / (1.0 + np.abs(fq))
        est_sq += _RES_WEIGHT * np.sum(rel * rel, axis=0)
    return np.sqrt(est_sq)


def _refine_mesh(x, est, tol):
    """Split every interval whose residual estimate exceeds ``tol``.

    Intervals above 100 tol get two nodes at their thirds, the others above
    tol one node at their midpoint.
    """
    h = np.diff(x)
    thirds = np.flatnonzero(est > 100.0 * tol)
    halves = np.flatnonzero((est > tol) & ~(est > 100.0 * tol))
    new = np.concatenate([
        x[thirds] + (1 / 3) * h[thirds],
        x[thirds] + (2 / 3) * h[thirds],
        0.5 * (x[halves] + x[halves + 1]),
    ])
    at = np.concatenate([thirds, thirds, halves]) + 1
    # np.insert places equal positions in the given order (a stable sort)
    return np.insert(x, at, new)


def bvp_solve(
    problem: BvpProblem,
    max_nodes: int = 20000,
    max_newton: int = 50,
    max_backtracks: int = 8,
    max_mesh_iterations: int = 12,
) -> BvpSolution:
    """Solve a :class:`BvpProblem` to its residual tolerance.

    Raises :class:`NewtonDivergence` for an unusable initial guess,
    :class:`SingularJacobian` if the linearization degenerates or its
    propagator from x = 0 grows past 1/sqrt(eps), and
    :class:`MeshLimitExceeded` if refinement runs out of its node budget.
    """
    rhs, bc = problem.rhs, problem.bc
    x = problem.initial_mesh.copy()
    Y = problem.initial_guess.copy()
    per_sweep: list[int] = []

    for sweep in range(1, max_mesh_iterations + 1):
        Y, f, iters = _newton(rhs, bc, x, Y, max_newton, max_backtracks)
        per_sweep.append(iters)
        est = _estimate_residuals(rhs, x, Y, f)
        res_norm = float(est.max())
        if res_norm <= problem.tol:
            interp = HermiteInterpolant(x, Y, f)
            return BvpSolution(
                mesh=x,
                y=Y,
                yp=f,
                interpolant=interp,
                residual_norm=res_norm,
                newton_iters=sum(per_sweep),
                mesh_iterations=sweep,
                newton_per_sweep=per_sweep,
            )
        x_new = _refine_mesh(x, est, problem.tol)
        if x_new.size > max_nodes:
            raise MeshLimitExceeded(
                f"refinement needs {x_new.size} nodes (budget {max_nodes})"
            )
        Y = HermiteInterpolant(x, Y, f)(x_new)
        x = x_new

    raise MeshLimitExceeded(
        f"residual {res_norm:.3e} > tol after {max_mesh_iterations} mesh sweeps"
    )
