"""3-stage Lobatto IIIA collocation on [0, 1], with every condition at x = 0.

The discretization is the classical implicit Simpson scheme: a C1 cubic
Hermite spline is required to satisfy the ODE at every mesh node and at every
interval midpoint (fourth order at the nodes).  The nonlinear collocation
equations are solved by a damped Newton iteration; the problem supplies the
analytic Jacobian of its rhs, evaluated at the nodes and at the midpoints the
residual already formed, and affine boundary conditions
``Ba y(0) + Bb y(1) = g``, which are their own Jacobian.

While the scaled residual estimate exceeds the tolerance somewhere, the mesh
is redistributed (de Boor's mesh selection; Ascher, Mattheij & Russell, ch. 9,
and Kierzenka & Shampine, ACM TOMS 27, 2001): the estimate scales as h^3, so
the nodes are placed to equidistribute est^(1/3), aiming every interval at a
fixed fraction of the tolerance.  Nodes go where the estimate is large and
come out where it is small, and no interval grows wider than the widest of
the initial mesh.  The solve is repeated warm-started from the interpolant.

The solver serves the problems the folded shock system poses: all m
conditions sit at x = 0 (``Bb = 0``, ``Ba`` nonsingular), and the rhs
Jacobian is lower triangular, so component r depends on components c <= r
alone.  The Newton matrix is then block lower-bidiagonal with lower-triangular
blocks, and one Newton step is m scalar affine recurrences marched from
x = 0 (block condensation, Ascher, Mattheij & Russell, *Numerical Solution
of Boundary Value Problems for ODEs*, ch. 7, in its scalar case): the
conditions give dy_0 outright, and component r of interval i's equations,
with the components c < r already known, reads
dy^r_{i+1} = M_i dy^r_i + c_i.  A work-efficient scan of the scalar pairs
(M_i, c_i) (Blelloch, CMU-CS-90-190) composes them outward in numpy alone.
Marching from x = 0 is stable when the linearized flow contracts towards
x = 1, as the folded shock system does on both halves (a Lax shock has
a1(u+) < 0 < a1(u-)).  A component whose propagator max_k |M_{k-1} ... M_0|
exceeds 1/sqrt(eps), such as a growing mode, is refused with
:class:`SingularJacobian`, as is an exactly zero diagonal entry of a block.
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

# Largest propagator norm the forward march accepts: beyond it the march
# would amplify rounding by more than half of the working digits.
_MAX_PROPAGATOR_NORM = 1.0 / np.sqrt(np.finfo(float).eps)
# Interior abscissae of the 5-point Lobatto rule (residual sampling points
# between the collocation points) and their quadrature weight.
_RES_THETA = (0.5 - np.sqrt(21.0) / 14.0, 0.5 + np.sqrt(21.0) / 14.0)
_RES_WEIGHT = 49.0 / 180.0
# Fraction of the tolerance that a redistributed mesh aims each interval's
# residual estimate at.  Of 0.3, 0.35, ..., 0.5, 0.3 took the fewest mesh
# sweeps over 48 coupled shock configurations (106, against 121 at 0.5).
_MESH_THETA = 0.3
# Budgets: step halvings per Newton step, Newton steps per sweep, sweeps, nodes.
_MAX_BACKTRACKS = 8
_MAX_NEWTON = 50
_MAX_MESH_SWEEPS = 12
_MAX_NODES = 20000


@dataclass
class BvpProblem:
    """First-order system ``y' = rhs(x, y)`` on [0, 1] with m conditions at x = 0.

    ``rhs`` is vectorized: it maps abscissae of shape ``(n,)`` and states of
    shape ``(m, n)`` to derivatives of shape ``(m, n)``.  ``jac`` takes the
    same arguments and returns its Jacobian, of shape ``(n, m, m)``:
    ``jac(x, Y)[p, r, c]`` is d rhs_r / d y_c at point p.  It must be lower
    triangular (d rhs_r / d y_c = 0 for c > r), which is checked on the
    initial guess; the solver reads only its entries c <= r.  ``bc`` is the
    triple ``(Ba, Bb, g)`` of shapes (m, m), (m, m), (m,) that states the m
    conditions ``Ba y(0) + Bb y(1) = g``; every condition must sit at x = 0,
    so ``Bb`` must be zero and ``Ba`` nonsingular.  Together these let each
    Newton step march from x = 0 one component at a time.
    ``initial_guess`` holds state samples of shape ``(m, n)`` on
    ``initial_mesh``.  Anything else is refused with :class:`BadProblem`.
    """

    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bc: tuple
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
        try:
            self.bc = tuple(np.asarray(b, dtype=float) for b in self.bc)
        except (TypeError, ValueError) as exc:
            raise BadProblem(f"bc must be the triple (Ba, Bb, g): {exc}") from exc
        shapes = tuple(b.shape for b in self.bc)
        if shapes != ((m, m), (m, m), (m,)):
            raise BadProblem(
                f"bc (Ba, Bb, g) has shapes {shapes} for a system of "
                f"dimension {m}; expected {((m, m), (m, m), (m,))}"
            )
        Ba, Bb, _ = self.bc
        if np.any(Bb != 0.0):
            raise BadProblem("every condition must sit at x = 0: Bb must be 0")
        if np.linalg.matrix_rank(Ba) < m:
            raise BadProblem("Ba is singular: the conditions do not fix y(0)")
        J = self.jac(x, self.initial_guess)
        if np.shape(J) != (x.size, m, m):
            raise BadProblem(
                f"jac returned shape {np.shape(J)} at the initial guess of a "
                f"system of dimension {m}; expected {(x.size, m, m)}"
            )
        if np.any(np.triu(J, 1)):
            raise BadProblem("jac must be lower triangular at the initial guess")

def _hermite_value(y0, y1, f0, f1, h, t):
    """Value at t in [0, 1] of the cubic with ends (y0, f0), (y1, f1)."""
    t2, t3 = t * t, t * t * t
    return (
        y0 * (2 * t3 - 3 * t2 + 1)
        + y1 * (-2 * t3 + 3 * t2)
        + h * f0 * (t3 - 2 * t2 + t)
        + h * f1 * (t3 - t2)
    )


def _hermite_slope(y0, y1, f0, f1, h, t):
    """Slope at t in [0, 1] of the cubic of :func:`_hermite_value`."""
    t2 = t * t
    return (
        (y1 - y0) * (6 * t - 6 * t2) / h
        + f0 * (3 * t2 - 4 * t + 1)
        + f1 * (3 * t2 - 2 * t)
    )


class HermiteInterpolant:
    """Piecewise-cubic Hermite interpolant of (mesh, y, y'); C1 by construction."""

    def __init__(self, x: np.ndarray, y: np.ndarray, yp: np.ndarray):
        self.x = x
        self.y = y
        self.yp = yp

    def __call__(self, xq, rows=slice(None)):
        """Values at scalar or array ``xq`` of the components ``rows``."""
        xs = np.atleast_1d(np.asarray(xq, dtype=float))
        i = np.clip(np.searchsorted(self.x, xs, side="right") - 1, 0, self.x.size - 2)
        h = self.x[i + 1] - self.x[i]
        y, yp = self.y[rows], self.yp[rows]
        t = (xs - self.x[i]) / h
        out = _hermite_value(y[:, i], y[:, i + 1], yp[:, i], yp[:, i + 1], h, t)
        return out[:, 0] if np.ndim(xq) == 0 else out


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
    return phi, f, y_mid, x_mid


def _assemble_jacobian(jac, bc, x, Y, y_mid, x_mid):
    """Lower-triangular blocks of the Newton matrix of the collocation system.

    The rhs Jacobian ``jac`` is evaluated at the nodes and at the residual's
    own midpoint states ``y_mid``.  Returns ``(A, B, Ba)``: A and B of shape
    (m, m, n-1), interval index last, are the derivatives of interval i's
    residual with respect to y_i and y_{i+1}; only their entries c <= r are
    formed, the rest stay zero.  ``Ba``, the matrix of the affine conditions
    ``bc``, is the derivative of the boundary residuals with respect to y_0.
    """
    m = Y.shape[0]
    h = np.diff(x)
    Jn = np.ascontiguousarray(jac(x, Y).transpose(1, 2, 0))
    Jm = np.ascontiguousarray(jac(x_mid, y_mid).transpose(1, 2, 0))
    lo, hi = Jn[:, :, :-1], Jn[:, :, 1:]
    inv_h = 1.0 / h
    q = h / 8.0
    # d(y_mid)/d(y_i) = I/2 + (h/8) J(y_i), d(y_mid)/d(y_{i+1}) = I/2 - (h/8) J(y_{i+1})
    Xa = [[0.5 + q * lo[k, k] if c == k else q * lo[k, c] for c in range(k + 1)]
          for k in range(m)]
    Xb = [[0.5 - q * hi[k, k] if c == k else -(q * hi[k, c]) for c in range(k + 1)]
          for k in range(m)]
    A = np.zeros((m, m, h.size))
    B = np.zeros((m, m, h.size))
    # d(phi_i) of phi_i = (y_{i+1} - y_i)/h - (f_i + 4 f(y_mid) + f_{i+1})/6
    for r in range(m):
        A[r, :r + 1] = lo[r, :r + 1] / -6.0
        B[r, :r + 1] = hi[r, :r + 1] / -6.0
        A[r, r] -= inv_h
        B[r, r] += inv_h
        for c in range(r + 1):
            Sa = Jm[r, c] * Xa[c][c]
            Sb = Jm[r, c] * Xb[c][c]
            for k in range(c + 1, r + 1):
                Sa += Jm[r, k] * Xa[k][c]
                Sb += Jm[r, k] * Xb[k][c]
            A[r, c] -= (2.0 / 3.0) * Sa
            B[r, c] -= (2.0 / 3.0) * Sb
    return A, B, bc[0]


def _affine_prefix(M, c):
    """Compose the scalar maps z -> M[i] z + c[i]: (P[k], C[k]) of maps 0..k.

    Element k maps the value before map 0 to the value after map k, as
    P[k] z + C[k].  Work-efficient scan (Blelloch, CMU-CS-90-190): compose
    adjacent pairs as (M2 M1, M2 c1 + c2), scan the half-length sequence of
    pairs recursively, which gives every odd prefix, and reach each even
    prefix with one more composition.  That is about 2n compositions in
    ceil(log2 n) levels.
    """
    n = M.size
    if n == 1:
        return M, c
    P, C = np.empty_like(M), np.empty_like(c)
    P[0], C[0] = M[0], c[0]
    odd = M[1::2]
    P[1::2], C[1::2] = _affine_prefix(odd * M[0:n - 1:2], odd * c[0:n - 1:2] + c[1::2])
    even = M[2::2]
    P[2::2] = even * P[1:n - 1:2]
    C[2::2] = even * C[1:n - 1:2] + c[2::2]
    return P, C


def _block_solve(jac, R):
    """Newton step dY, of shape (m, n), solving ``J dY = -R`` by condensation.

    ``jac`` holds the blocks of :func:`_assemble_jacobian`; ``R`` is the
    residual of :func:`_full_residual` (interval residuals node-major, then
    the m boundary residuals).  The conditions sit at x = 0, so
    dy_0 = -Ba^{-1} R_bc.  The blocks are lower triangular, so component r
    of interval i's equations,

        B_i^{rr} dy^r_{i+1} + A_i^{rr} dy^r_i
            = -phi^r_i - sum_{c<r} (A_i^{rc} dy^c_i + B_i^{rc} dy^c_{i+1}),

    is a scalar affine recurrence dy^r_{i+1} = M_i dy^r_i + c_i once the
    components c < r are known; :func:`_affine_prefix` solves it for every
    node at once, component by component.

    This is the whole factor-and-solve of one Newton iteration.  It is bound
    to the module name ``splu``, which ``perfbench/tracing.py`` wraps, so the
    traced ``bvp.splu_s`` is the time of this linear algebra and
    ``bvp.splu_calls`` counts Newton linear solves.

    Raises :class:`SingularJacobian` if a diagonal entry B_i^{rr} is exactly
    zero, or if a component's propagator max_k |M_{k-1} ... M_0| exceeds
    1/sqrt(eps): the forward march is then unstable.
    """
    A, B, Ba = jac
    m, _, nint = A.shape
    phi = R[:-m].reshape(nint, m).T
    dY = np.empty((m, nint + 1))
    dY[:, 0] = np.linalg.solve(Ba, -R[-m:])
    for r in range(m):
        pivot = B[r, r]
        if not np.all(pivot):
            i = int(np.flatnonzero(pivot == 0.0)[0])
            raise SingularJacobian(
                f"collocation block: zero pivot in column {r} of interval {i}"
            )
        rhs = -phi[r]
        for c in range(r):
            rhs -= A[r, c] * dY[c, :-1] + B[r, c] * dY[c, 1:]
        P, C = _affine_prefix(-A[r, r] / pivot, rhs / pivot)
        norm = float(np.max(np.abs(P)))
        if norm > _MAX_PROPAGATOR_NORM:
            raise SingularJacobian(
                f"propagator norm {norm:.3e} exceeds {_MAX_PROPAGATOR_NORM:.3e}: "
                "the linearized problem does not contract away from x = 0"
            )
        dY[r, 1:] = P * dY[r, 0] + C
    return dY


# perfbench/tracing.py wraps the Newton linear solve under this name.
splu = _block_solve


def _full_residual(rhs, bc, x, Y):
    phi, f, y_mid, x_mid = _collocation_residual(rhs, x, Y)
    Ba, _, g = bc
    R = np.concatenate([phi.T.ravel(), Ba @ Y[:, 0] - g])
    return R, f, y_mid, x_mid


def _newton(rhs, jac, bc, x, Y):
    """Damped Newton on the collocation system; returns (Y, f, iterations)."""
    R, f, y_mid, x_mid = _full_residual(rhs, bc, x, Y)
    if not np.all(np.isfinite(R)):
        raise NewtonDivergence("residual is not finite at the initial guess")
    iters = 0
    for _ in range(_MAX_NEWTON):
        # residual densities have the units of the rhs
        scale = 1.0 + np.max(np.abs(Y)) + np.max(np.abs(f))
        norm = np.max(np.abs(R))
        if norm <= 1e-11 * scale:
            return Y, f, iters
        blocks = _assemble_jacobian(jac, bc, x, Y, y_mid, x_mid)
        dY = splu(blocks, R)
        if not np.all(np.isfinite(dY)):
            raise SingularJacobian("Newton linear solve produced non-finite step")

        lam = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            Y_try = Y + lam * dY
            R_try, f_t, y_mid_t, x_mid = _full_residual(rhs, bc, x, Y_try)
            norm_try = np.max(np.abs(R_try)) if np.all(np.isfinite(R_try)) else np.inf
            if norm_try < (1.0 - 1e-4 * lam) * norm:
                break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                f"no residual decrease after {_MAX_BACKTRACKS} step halvings "
                f"(|R|={norm:.3e})"
            )
        Y, R, f, y_mid = Y_try, R_try, f_t, y_mid_t
        iters += 1
        if np.max(np.abs(lam * dY)) <= 1e-14 * scale:
            return Y, f, iters
    raise NewtonDivergence(f"not converged after {_MAX_NEWTON} Newton iterations")


def _estimate_residuals(rhs, x, Y, f):
    """Scaled collocation residual estimate on every interval.

    Samples the Hermite interpolant at the two interior points of the 5-point
    Lobatto rule (the collocation residual vanishes at the nodes and the
    midpoint) and returns a quadrature-weighted rms per interval.
    """
    h = np.diff(x)
    est_sq = np.zeros(x.size - 1)
    for t in _RES_THETA:
        ends = (Y[:, :-1], Y[:, 1:], f[:, :-1], f[:, 1:], h, t)
        S, Sp = _hermite_value(*ends), _hermite_slope(*ends)
        fq = rhs(x[:-1] + t * h, S)
        rel = (Sp - fq) / (1.0 + np.abs(fq))
        est_sq += _RES_WEIGHT * np.sum(rel * rel, axis=0)
    return np.sqrt(est_sq)


def _refine_mesh(x, est, tol, h_max):
    """A fresh mesh whose intervals each carry an estimate of about theta tol.

    The estimate scales as h**3 (halving an interval divides it by about 8),
    so interval i needs (est_i / (theta tol))**(1/3) subintervals, and at
    least h_i / h_max, so that no interval grows wider than ``h_max``.  The
    new nodes equidistribute the cumulative need over [x_0, x_{n-1}]: they
    crowd where the estimate is large, and nodes where it is small are
    removed.  Both ends are kept.
    """
    h = np.diff(x)
    need = np.maximum(np.cbrt(est / (_MESH_THETA * tol)), h / h_max)
    cum = np.concatenate([[0.0], np.cumsum(need)])
    n = int(np.ceil(cum[-1]))
    return np.interp(np.linspace(0.0, cum[-1], n + 1), cum, x)


def bvp_solve(problem: BvpProblem) -> BvpSolution:
    """Solve a :class:`BvpProblem` to its residual tolerance.

    Each mesh sweep runs Newton on the current mesh and estimates the
    residual; where the estimate exceeds ``problem.tol``, the next sweep
    starts from a redistributed mesh (:func:`_refine_mesh`), which may hold
    fewer nodes than the current one.

    Raises :class:`NewtonDivergence` for an unusable initial guess,
    :class:`SingularJacobian` if the linearization degenerates or its
    propagator from x = 0 grows past 1/sqrt(eps), and
    :class:`MeshLimitExceeded` if a redistributed mesh needs more than
    ``_MAX_NODES`` nodes or the residual stays above the tolerance after the
    last mesh sweep.
    """
    rhs, jac, bc = problem.rhs, problem.jac, problem.bc
    x = problem.initial_mesh.copy()
    Y = problem.initial_guess.copy()
    h_max = float(np.max(np.diff(x)))
    per_sweep: list[int] = []

    for sweep in range(1, _MAX_MESH_SWEEPS + 1):
        Y, f, iters = _newton(rhs, jac, bc, x, Y)
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
        x_new = _refine_mesh(x, est, problem.tol, h_max)
        if x_new.size > _MAX_NODES:
            raise MeshLimitExceeded(
                f"the redistributed mesh needs {x_new.size} nodes (budget {_MAX_NODES})"
            )
        Y = HermiteInterpolant(x, Y, f)(x_new)
        x = x_new

    raise MeshLimitExceeded(
        f"residual {res_norm:.3e} > tol after {_MAX_MESH_SWEEPS} mesh sweeps"
    )
