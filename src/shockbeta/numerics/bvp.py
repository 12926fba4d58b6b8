"""4-stage Lobatto IIIA collocation on [0, 1], with every condition at x = 0.

On each mesh interval [x_i, x_i + h] the solution is a quartic that
satisfies the ODE at the four Lobatto points c = 0, (5 - sqrt 5)/10,
(5 + sqrt 5)/10, 1 (Ascher, Mattheij & Russell, *Numerical Solution of
Boundary Value Problems for ODEs*, ch. 5; the scheme of bvp5c, Kierzenka &
Shampine, "A BVP solver that controls residual and error", JNAIAM 3, 2008).
It is sixth order at the mesh nodes.  The Newton unknowns are the node values
and the two interior stage values S2, S3 of every interval; the nonlinear
collocation equations are solved by a damped Newton iteration, with the
analytic Jacobian of the problem's rhs and affine boundary conditions
``Ba y(0) + Bb y(1) = g``, which are their own Jacobian.  Each iteration
evaluates the rhs and its Jacobian once, on the nodes and both stage sets
stacked into one array.

The converged solution is extended by the C2 piecewise-quintic Hermite
interpolant of y, y' = f and y'' = J f at the nodes
(:class:`HermiteInterpolant`), accurate to O(h^6).  Its residual
y' - f(y) scales as h^5 and is estimated on every interval; while the
estimate exceeds the tolerance somewhere, the mesh is redistributed (de Boor's
mesh selection; Ascher, Mattheij & Russell, ch. 9): the nodes equidistribute
est^(1/5), aiming every interval at a fixed fraction of the tolerance, and no
interval grows wider than the widest of the initial mesh.  The solve is then
repeated from the interpolant's nodes and stages on the new mesh.  A
state that meets the tolerance after a large last Newton step takes one
more step, which settles it where a solve from a close guess ends.

The solver serves the problems the folded shock system poses: all m
conditions sit at x = 0 (``Bb = 0``, ``Ba`` nonsingular), and the rhs
Jacobian is lower triangular, so component r depends on components c <= r
alone.  One Newton step then condenses each interval's stages and marches
from x = 0 one component at a time (block condensation, Ascher, Mattheij &
Russell, ch. 7, in its scalar case): the conditions give dy_0 outright, and
component r of interval i's three equations, with the components c < r
already known, is a 3 x 3 system for (dS2, dS3, dy_{i+1}) given dy_i, that
is, one scalar affine recurrence dy^r_{i+1} = M_i dy^r_i + c_i.  A
work-efficient scan of the pairs (M_i, c_i) (Blelloch, CMU-CS-90-190)
composes them outward in numpy alone.  Marching from x = 0 is stable when
the linearized flow contracts towards x = 1, as the folded shock system does
on both halves (a Lax shock has a1(u+) < 0 < a1(u-)).  A component whose
propagator max_k |M_{k-1} ... M_0| exceeds 1/sqrt(eps), such as a growing
mode, is refused with :class:`SingularJacobian`, as is a singular 3 x 3
stage block.
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
_SQRT5 = np.sqrt(5.0)
# Interior Lobatto points of an interval (the stages S2, S3).
_STAGE_C = np.array([(5.0 - _SQRT5) / 10.0, (5.0 + _SQRT5) / 10.0])
# Lobatto IIIA coefficients of the equations for S2, S3 and y_{i+1}, over the
# rhs at y_i, S2, S3, y_{i+1}: row k reads s_k = y_i + h sum_j _A[k, j] f_j.
_A = np.array([
    [11.0 + _SQRT5, 25.0 - _SQRT5, 25.0 - 13.0 * _SQRT5, -1.0 + _SQRT5],
    [11.0 - _SQRT5, 25.0 + 13.0 * _SQRT5, 25.0 + _SQRT5, -1.0 - _SQRT5],
    [10.0, 50.0, 50.0, 10.0],
]) / 120.0
# Interior abscissae and weights of the 5-point Lobatto rule: the residual of
# the quintic vanishes at both nodes, so these three samples integrate its
# square over the interval.
_RES_T = np.array([0.5 - np.sqrt(21.0) / 14.0, 0.5, 0.5 + np.sqrt(21.0) / 14.0])
_RES_W = np.array([49.0 / 180.0, 16.0 / 45.0, 49.0 / 180.0])
# Fraction of the tolerance that a redistributed mesh aims each interval's
# residual estimate at.  The output error between nodes, not the residual,
# sets beta's digits: 0.03 keeps the coupled betas within about 1e-12 of a
# tol = 1e-11 solve, where 0.3 left them up to 5e-12 off with meshes only
# 12 % smaller and the same sweep counts.
_MESH_THETA = 0.03
# A sweep that passes the residual estimate after a last Newton step larger
# than this (over the scale of the convergence test) takes one more step: the
# residual test passes such a state some way above the rounding level, where
# its digits still depend on the guess.  The last steps of cold coupled
# solves stay below 2.2e-7 on the starting mesh and 1.2e-8 on refined ones.
_SETTLE_STEP = 1e-6
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
    initial guess; the solver reads only its entries c <= r.  The rhs should
    be autonomous: the continuous extension takes y'' = J f at the nodes,
    which holds when rhs does not depend on x (otherwise the extension, and
    with it the residual estimate, loses its sixth order).  ``bc`` is the
    triple ``(Ba, Bb, g)`` of shapes (m, m), (m, m), (m,) that states the m
    conditions ``Ba y(0) + Bb y(1) = g``; every condition must sit at x = 0,
    so ``Bb`` must be zero and ``Ba`` nonsingular.  Together these let each
    Newton step march from x = 0 one component at a time.
    ``initial_guess`` holds state samples of shape ``(m, n)`` on
    ``initial_mesh``; ``initial_stages``, of shape ``(m, 2, n - 1)``, the
    guessed values at the two interior stage points of every interval
    (:func:`stage_abscissae`), or None to take them from the quintic
    extension of the guess.  Anything else is refused with
    :class:`BadProblem`.
    """

    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bc: tuple
    initial_mesh: np.ndarray
    initial_guess: np.ndarray
    tol: float = 1e-8
    initial_stages: np.ndarray | None = None

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
        m = self.initial_guess.shape[0]
        if self.initial_stages is not None:
            self.initial_stages = np.asarray(self.initial_stages, dtype=float)
            if self.initial_stages.shape != (m, 2, x.size - 1):
                raise BadProblem(
                    "initial_stages must have shape (m, 2, len(mesh) - 1)"
                )
            if not np.all(np.isfinite(self.initial_stages)):
                raise BadProblem("initial_stages must be finite")
        if self.tol <= 0:
            raise BadProblem("tol must be positive")
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


def stage_abscissae(x: np.ndarray) -> np.ndarray:
    """Interior stage points of every interval of mesh ``x``, shape (2, n - 1)."""
    return x[:-1] + _STAGE_C[:, None] * np.diff(x)


def _collocation_points(x):
    """The nodes, then the first and the second stage point of every interval.

    The Newton state Z of shape (m, n + 2(n - 1)) is laid out the same way:
    Z[:, :n] are the node values and Z[:, n:] the stages, (m, 2, n - 1)
    when reshaped.
    """
    return np.concatenate([x, stage_abscissae(x).ravel()])


class HermiteInterpolant:
    """Piecewise-quintic Hermite interpolant of (mesh, y, y', y''); C2.

    Interval i holds the monomial coefficients of its quintic in the local
    variable t = (x - x_i) / h_i in [0, 1], evaluated by Horner's rule.  The
    last node is a constant piece of its own, so every node, x = 1 included,
    is reproduced exactly.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, yp: np.ndarray,
                 ypp: np.ndarray):
        h = np.diff(x)
        y0, y1 = y[:, :-1], y[:, 1:]
        d0, d1 = h * yp[:, :-1], h * yp[:, 1:]
        e0, e1 = h * h * ypp[:, :-1], h * h * ypp[:, 1:]
        # the quintic with values, t-slopes d and t-curvatures e at both ends
        p = y1 - y0 - d0 - 0.5 * e0
        q = d1 - d0 - e0
        s = e1 - e0
        self.x = x
        self._h = np.append(h, 1.0)
        self._coef = np.zeros((6, *y.shape))
        self._coef[0] = y
        for k, ak in enumerate((d0, 0.5 * e0, 10.0 * p - 4.0 * q + 0.5 * s,
                                -15.0 * p + 7.0 * q - s, 6.0 * p - 3.0 * q + 0.5 * s),
                               start=1):
            self._coef[k, :, :-1] = ak

    def __call__(self, xq, rows=slice(None)):
        """Values at scalar or array ``xq`` of the components ``rows``."""
        xs = np.atleast_1d(np.asarray(xq, dtype=float))
        i = np.clip(np.searchsorted(self.x, xs, side="right") - 1, 0, self.x.size - 1)
        t = (xs - self.x[i]) / self._h[i]
        a = np.take(self._coef[:, rows], i, axis=2)
        out = a[5] * t
        for k in range(4, 0, -1):
            out += a[k]
            out *= t
        out += a[0]
        return out[:, 0] if np.ndim(xq) == 0 else out

    def interior(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and x-slopes at x_i + t h_i on every interval, for each t.

        Both have shape (m, len(t), n - 1).
        """
        t = np.asarray(t, dtype=float)[:, None]
        a = self._coef[:, :, None, :-1]
        val = a[5] * t
        slope = 5.0 * a[5] * t
        for k in range(4, 0, -1):
            val += a[k]
            val *= t
            slope += k * a[k]
            if k > 1:
                slope *= t
        return val + a[0], slope / self._h[:-1]


@dataclass
class BvpSolution:
    """Converged collocation solution with its quintic extension.

    ``stages`` holds the converged values at the two interior stage points
    of every interval, shape (m, 2, n - 1).
    """

    mesh: np.ndarray
    y: np.ndarray
    yp: np.ndarray
    stages: np.ndarray
    interpolant: HermiteInterpolant
    residual_norm: float
    newton_iters: int
    mesh_iterations: int
    newton_per_sweep: list[int]


def _collocation_residual(rhs, x, xz, Z):
    """Residual densities of the three equations of every interval.

    Returns ``(phi, F)``: phi of shape (m, 3, n - 1) holds
    (s_k - y_i) / h - sum_j _A[k, j] f_j for s_k = S2, S3, y_{i+1}, and F is
    the rhs at every point ``xz`` of the state Z.  The 1/h scaling keeps the
    Newton convergence test meaningful on strongly graded meshes: without it,
    equations on tiny intervals look converged at any state because the raw
    residual carries a factor h.
    """
    points = _point_index(x.size)
    F = rhs(xz, Z)
    Zq = Z[:, points]                                       # (m, 4, n - 1)
    phi = (Zq[:, 1:] - Zq[:, :1]) / np.diff(x) - _A @ F[:, points]
    return phi, F


def _full_residual(rhs, bc, x, xz, Z):
    phi, F = _collocation_residual(rhs, x, xz, Z)
    Ba, _, g = bc
    return np.concatenate([phi.ravel(), Ba @ Z[:, 0] - g]), F


def _point_index(n):
    """Columns of Z at y_i, S2, S3, y_{i+1} of every interval, shape (4, n - 1)."""
    i = np.arange(n - 1)
    return np.stack([i, n + i, 2 * n - 1 + i, i + 1])


def _assemble_jacobian(jac, bc, x, xz, Z):
    """The data of the Newton matrix of the collocation system.

    The rhs Jacobian ``jac`` is evaluated once at every point of Z.  Returns
    ``(h, hJ, Ba)``: hJ of shape (m, m, 4, n - 1) is h_i times d rhs_r / d y_c
    at y_i, S2, S3 and y_{i+1} of interval i, and ``Ba``, the matrix of the
    affine conditions ``bc``, is the derivative of the boundary residuals
    with respect to y_0.  Equation k of interval i,
    (s_k - y_i) / h - sum_j _A[k, j] f_j, has the derivative -_A[k, j] J_j
    with respect to the state at its point j, plus I/h on s_k and -I/h on y_i.
    """
    h = np.diff(x)
    J = jac(xz, Z).transpose(1, 2, 0)
    return h, J[:, :, _point_index(x.size)] * h, bc[0]


def _affine_prefix(M, c):
    """Compose the scalar maps z -> M[i] z + c[i]: (P[k], C[k]) of maps 0..k.

    Element k maps the value before map 0 to the value after map k, as
    P[k] z + C[k]; leading axes of M and c are independent sequences.
    Work-efficient scan (Blelloch, CMU-CS-90-190): compose adjacent pairs as
    (M2 M1, M2 c1 + c2), scan the half-length sequence of pairs recursively,
    which gives every odd prefix, and reach each even prefix with one more
    composition.  That is about 2n compositions in ceil(log2 n) levels.
    """
    n = M.shape[-1]
    if n == 1:
        return M, c
    P, C = np.empty_like(M), np.empty_like(c)
    P[..., 0], C[..., 0] = M[..., 0], c[..., 0]
    odd = M[..., 1::2]
    pair_c = odd * c[..., 0:n - 1:2]
    pair_c += c[..., 1::2]
    P[..., 1::2], C[..., 1::2] = _affine_prefix(odd * M[..., 0:n - 1:2], pair_c)
    even = M[..., 2::2]
    np.multiply(even, P[..., 1:n - 1:2], out=P[..., 2::2])
    np.multiply(even, C[..., 1:n - 1:2], out=C[..., 2::2])
    C[..., 2::2] += c[..., 2::2]
    return P, C


def _inverse3(G):
    """Inverses and determinants of the 3 x 3 matrices G[k][l], arrays alike.

    The adjugate is formed from cyclic cofactors,
    C_kl = G[k+1][l+1] G[k+2][l+2] - G[k+1][l+2] G[k+2][l+1] (indices mod 3),
    entry by entry on the whole arrays; the inverse has shape (3, 3, ...).
    A zero determinant is returned, not divided by.
    """
    cof = [[G[(k + 1) % 3][(l + 1) % 3] * G[(k + 2) % 3][(l + 2) % 3]
            - G[(k + 1) % 3][(l + 2) % 3] * G[(k + 2) % 3][(l + 1) % 3]
            for l in range(3)] for k in range(3)]
    det = G[0][0] * cof[0][0] + G[0][1] * cof[0][1] + G[0][2] * cof[0][2]
    inv_det = 1.0 / np.where(det == 0.0, 1.0, det)
    return np.array([[cof[l][k] * inv_det for l in range(3)] for k in range(3)]), det


def _block_solve(jac, R):
    """Newton step dZ, in the layout of Z, solving ``J dZ = -R`` by condensation.

    ``jac`` holds the data of :func:`_assemble_jacobian`; ``R`` is the
    residual of :func:`_full_residual` (the densities phi of shape
    (m, 3, n - 1), raveled, then the m boundary residuals).  The conditions
    sit at x = 0, so dy_0 = -Ba^{-1} R_bc.  The Jacobian is lower
    triangular, so component r of interval i's equations, times h,

        ds_k - sum_{l=1..3} _A[k, l] hJ_l^{rr} ds_l
            = -h phi^r_k + (1 + _A[k, 0] hJ_0^{rr}) dy^r_i
              + sum_j _A[k, j] sum_{c<r} hJ_j^{rc} dZ^c_j,

    for (ds_1, ds_2, ds_3) = (dS2, dS3, dy_{i+1}), is a 3 x 3 system
    G s = u + e dy^r_i once the components c < r are known.  The inverses of
    every G, for all m components, are formed in one vectorized pass; the
    last row of G^{-1} e and G^{-1} u gives the scalar affine recurrence
    dy^r_{i+1} = M_i dy^r_i + c_i, which :func:`_affine_prefix` solves for
    every node at once, and the first two rows then give the stages.  The
    components that read none of the components still unsolved share one
    scan: for the folded system both halves' ubar, then both v.

    This is the whole factor-and-solve of one Newton iteration.  It is bound
    to the module name ``splu``, which ``perfbench/tracing.py`` wraps, so the
    traced ``bvp.splu_s`` is the time of this linear algebra and
    ``bvp.splu_calls`` counts Newton linear solves.

    Raises :class:`SingularJacobian` if a block G is exactly singular, or if
    a component's propagator max_k |M_{k-1} ... M_0| exceeds 1/sqrt(eps):
    the forward march is then unstable.
    """
    h, hJ, Ba = jac
    m, _, _, nint = hJ.shape
    n = nint + 1
    phi = R[:-m].reshape(m, 3, nint)
    diag = hJ[np.arange(m), np.arange(m)].swapaxes(0, 1)   # (4, m, nint)
    G = np.eye(3)[:, :, None, None] - _A[:, 1:, None, None] * diag[1:]
    Ginv, det = _inverse3(G)
    if not np.all(det):
        r, i = np.argwhere(det == 0.0)[0]
        raise SingularJacobian(
            f"collocation block: zero pivot in column {r} of interval {i}"
        )
    Ginv = Ginv.transpose(2, 0, 1, 3)                      # (m, 3, 3, nint)
    Ge = np.einsum("rkli,lri->rki", Ginv, 1.0 + _A[:, :1, None] * diag[0])
    points = _point_index(n)
    dZ = np.empty((m, n + 2 * nint))
    dZ[:, 0] = np.linalg.solve(Ba, -R[-m:])
    # coupled[r][c]: component r reads component c < r somewhere
    coupled = [[c < r and hJ[r, c].any() for c in range(m)] for r in range(m)]
    todo = list(range(m))
    while todo:
        # the components that read none still to be solved march together
        rows = [r for r in todo if not any(coupled[r][c] for c in todo)]
        u = -h * phi[rows]
        for q, r in enumerate(rows):
            for c in range(r):
                if coupled[r][c]:
                    u[q] += _A @ (hJ[r, c] * dZ[c, points])
        u = np.einsum("rkli,rli->rki", Ginv[rows], u)
        P, C = _affine_prefix(Ge[rows, 2], u[:, 2])
        norm = float(np.max(np.abs(P)))
        if norm > _MAX_PROPAGATOR_NORM:
            raise SingularJacobian(
                f"propagator norm {norm:.3e} exceeds {_MAX_PROPAGATOR_NORM:.3e}: "
                "the linearized problem does not contract away from x = 0"
            )
        dZ[rows, 1:n] = dZ[rows, :1] * P + C
        dy = dZ[rows, :nint]
        dZ[rows, n:] = (u[:, :2] + Ge[rows, :2] * dy[:, None]).reshape(len(rows), -1)
        todo = [r for r in todo if r not in rows]
    return dZ


# perfbench/tracing.py wraps the Newton linear solve under this name.
splu = _block_solve


def _newton(rhs, jac, bc, x, Z):
    """Damped Newton on the collocation system.

    Returns ``(Z, F, iterations, step)``: ``step`` is the largest entry of
    the last Newton step taken, over the scale of the convergence test (0
    when the guess already passes it).
    """
    xz = _collocation_points(x)
    R, F = _full_residual(rhs, bc, x, xz, Z)
    if not np.all(np.isfinite(R)):
        raise NewtonDivergence("residual is not finite at the initial guess")
    iters, step = 0, 0.0
    for _ in range(_MAX_NEWTON):
        # residual densities have the units of the rhs
        scale = 1.0 + np.max(np.abs(Z)) + np.max(np.abs(F))
        norm = np.max(np.abs(R))
        if norm <= 1e-11 * scale:
            return Z, F, iters, step
        dZ = _newton_step(jac, bc, x, xz, Z, R)

        lam = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            Z_try = Z + lam * dZ
            R_try, F_try = _full_residual(rhs, bc, x, xz, Z_try)
            norm_try = np.max(np.abs(R_try)) if np.all(np.isfinite(R_try)) else np.inf
            if norm_try < (1.0 - 1e-4 * lam) * norm:
                break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                f"no residual decrease after {_MAX_BACKTRACKS} step halvings "
                f"(|R|={norm:.3e})"
            )
        Z, R, F = Z_try, R_try, F_try
        iters += 1
        step_max = np.max(np.abs(lam * dZ))
        step = float(step_max / scale)
        if step_max <= 1e-14 * scale:
            return Z, F, iters, step
    raise NewtonDivergence(f"not converged after {_MAX_NEWTON} Newton iterations")


def _newton_step(jac, bc, x, xz, Z, R):
    """The Newton step dZ at state Z with residual R."""
    dZ = splu(_assemble_jacobian(jac, bc, x, xz, Z), R)
    if not np.all(np.isfinite(dZ)):
        raise SingularJacobian("Newton linear solve produced non-finite step")
    return dZ


def _settle(rhs, jac, bc, x, Z):
    """One full Newton step from a state that passed the convergence test.

    Returns ``(Z, F)``.  After a large last step the residual may pass the
    test some way above the rounding level; this step takes the state to
    where more steps no longer move it.
    """
    xz = _collocation_points(x)
    R, _ = _full_residual(rhs, bc, x, xz, Z)
    Z = Z + _newton_step(jac, bc, x, xz, Z, R)
    return Z, rhs(xz, Z)


def _extension(jac, x, Y, f):
    """The quintic extension of node values Y with slopes f = rhs(x, Y)."""
    return HermiteInterpolant(x, Y, f, np.einsum("prc,cp->rp", jac(x, Y), f))


def sample_collocation(interp, x):
    """Node values (m, n) and stages (m, 2, n - 1) of mesh ``x`` from ``interp``."""
    Z = interp(_collocation_points(x))
    return Z[:, :x.size], Z[:, x.size:].reshape(-1, 2, x.size - 1)


def _estimate_residuals(rhs, interp):
    """Scaled residual estimate of the quintic extension on every interval.

    Samples the residual y' - f(y) at the three interior points of the
    5-point Lobatto rule (it vanishes at the nodes, where y' = f by
    construction) and returns a quadrature-weighted rms per interval.
    """
    S, Sp = interp.interior(_RES_T)
    m, k, nint = S.shape
    xq = (interp.x[:-1] + _RES_T[:, None] * np.diff(interp.x)).ravel()
    fq = rhs(xq, S.reshape(m, k * nint)).reshape(m, k, nint)
    rel = (Sp - fq) / (1.0 + np.abs(fq))
    return np.sqrt(_RES_W @ np.sum(rel * rel, axis=0))


def _refine_mesh(x, est, tol, h_max):
    """A fresh mesh whose intervals each carry an estimate of about theta tol.

    The estimate scales as h**5 (halving an interval divides it by about
    32), so interval i needs (est_i / (theta tol))**(1/5) subintervals, and
    at least h_i / h_max, so that no interval grows wider than ``h_max``.
    The new nodes equidistribute the cumulative need over [x_0, x_{n-1}]:
    they crowd where the estimate is large, and nodes where it is small are
    removed.  Both ends are kept.
    """
    h = np.diff(x)
    need = np.maximum((est / (_MESH_THETA * tol)) ** 0.2, h / h_max)
    cum = np.concatenate([[0.0], np.cumsum(need)])
    n = int(np.ceil(cum[-1]))
    return np.interp(np.linspace(0.0, cum[-1], n + 1), cum, x)


def bvp_solve(problem: BvpProblem) -> BvpSolution:
    """Solve a :class:`BvpProblem` to its residual tolerance.

    Each mesh sweep runs Newton on the current mesh and estimates the
    residual of the quintic extension; where the estimate exceeds
    ``problem.tol``, the next sweep starts from a redistributed mesh
    (:func:`_refine_mesh`), which may hold fewer nodes than the current one,
    with its nodes and stages sampled from the extension.  A sweep that meets
    the tolerance after a last Newton step larger than ``_SETTLE_STEP`` times
    the scale of Newton's test takes one more Newton step
    (:func:`_settle`, counted in ``newton_per_sweep``) and rebuilds the
    extension from the settled state, so a solve from a far guess ends
    where one from a close guess does.

    Raises :class:`NewtonDivergence` for an unusable initial guess,
    :class:`SingularJacobian` if the linearization degenerates or its
    propagator from x = 0 grows past 1/sqrt(eps), and
    :class:`MeshLimitExceeded` if a redistributed mesh needs more than
    ``_MAX_NODES`` nodes or the residual stays above the tolerance after the
    last mesh sweep.
    """
    rhs, jac, bc = problem.rhs, problem.jac, problem.bc
    x = problem.initial_mesh.copy()
    Y, S = problem.initial_guess, problem.initial_stages
    if S is None:  # the extension reproduces the node values exactly
        Z = _extension(jac, x, Y, rhs(x, Y))(_collocation_points(x))
    else:
        Z = np.concatenate([Y, S.reshape(Y.shape[0], -1)], axis=1)
    h_max = float(np.max(np.diff(x)))
    per_sweep: list[int] = []

    for sweep in range(1, _MAX_MESH_SWEEPS + 1):
        Z, F, iters, step = _newton(rhs, jac, bc, x, Z)
        n = x.size
        interp = _extension(jac, x, Z[:, :n], F[:, :n])
        est = _estimate_residuals(rhs, interp)
        if step > _SETTLE_STEP and est.max() <= problem.tol:
            Z, F = _settle(rhs, jac, bc, x, Z)
            iters += 1
            interp = _extension(jac, x, Z[:, :n], F[:, :n])
            est = _estimate_residuals(rhs, interp)
        per_sweep.append(iters)
        Y, f = Z[:, :n], F[:, :n]
        res_norm = float(est.max())
        if res_norm <= problem.tol:
            return BvpSolution(
                mesh=x,
                y=Y,
                yp=f,
                stages=Z[:, n:].reshape(-1, 2, n - 1),
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
        Z = interp(_collocation_points(x_new))
        x = x_new

    raise MeshLimitExceeded(
        f"residual {res_norm:.3e} > tol after {_MAX_MESH_SWEEPS} mesh sweeps"
    )
