"""4-stage Lobatto IIIA collocation on [0, 1] from a given state at x = 0.

On each mesh interval [x_i, x_i + h] the solution is a quartic that
satisfies the ODE at the four Lobatto points c = 0, (5 - sqrt 5)/10,
(5 + sqrt 5)/10, 1 (Ascher, Mattheij & Russell, *Numerical Solution of
Boundary Value Problems for ODEs*, ch. 5; the scheme of bvp5c, Kierzenka &
Shampine, "A BVP solver that controls residual and error", JNAIAM 3, 2008).
It is sixth order at the mesh nodes.  The Newton unknowns are the node values
and the two interior stage values S2, S3 of every interval; the nonlinear
collocation equations are solved by a damped Newton iteration, with the
analytic Jacobian of the problem's rhs and the conditions y(0) = y0, whose
Jacobian is the identity.  A step that does not reduce the residual is
halved, up to ``_MAX_BACKTRACKS`` times, before the iteration is refused
with :class:`NewtonDivergence`; a full step at rounding level is taken
with no decrease test.  Each iteration evaluates the rhs and its Jacobian
once, on the nodes and both stage sets stacked into one array; the four
points of every interval are four slices of that layout.
The initial guess is a function of x, read once at those points of the
initial mesh, and the Jacobian that checks it serves the first Newton step.

The converged solution is extended by the C2 piecewise-quintic Hermite
interpolant of y, y' = f and y'' = J f at the nodes
(:class:`HermiteInterpolant`), accurate to O(h^6).  Its residual
y' - f(y) scales as h^5 and is estimated on every interval; while the
estimate exceeds the tolerance somewhere, the mesh is redistributed (de Boor's
mesh selection; Ascher, Mattheij & Russell, ch. 9): the nodes equidistribute
est^(1/5), aiming every interval at a fixed fraction of the tolerance, and no
interval grows wider than the widest of the initial mesh.  The solve is then
repeated from the interpolant's nodes and stages on the new mesh.

The solver serves the problems the folded shock system poses: the m
conditions fix the state y0 at x = 0, so the problem is an initial-value
problem solved by global collocation, and the rhs Jacobian is lower
triangular, given as its diagonal and its couplings c < r, the entries the
solver reads: component r depends on components c <= r alone.  One Newton
step then condenses each interval's stages and marches from x = 0 one
component at a time (block condensation, Ascher, Mattheij & Russell, ch. 7,
in its scalar case): the conditions give dy_0 = y0 - y_0 outright, and
component r of interval i's three equations, with the components c < r
already known, is a 3 x 3 system for (dS2, dS3, dy_{i+1}) given dy_i, that
is, one scalar affine recurrence dy^r_{i+1} = M_i dy^r_i + c_i.  The
block depends on component r's diagonal entries alone, so components with
equal diagonals share it (the folded system's four components have two).
Recursive doubling of the pairs (M_i, c_i) (Hillis & Steele, "Data parallel
algorithms", CACM 29, 1986) composes them outward in numpy alone.  Marching
from x = 0 is stable when the linearized flow contracts towards x = 1, as
the folded shock system does on both halves (a Lax shock has
a1(u+) < 0 < a1(u-)).  A component whose propagator max_k |M_{k-1} ... M_0|
exceeds 1/sqrt(eps), such as a growing mode, is refused with
:class:`SingularJacobian`, as is a singular 3 x 3 stage block.
"""

from __future__ import annotations

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
# Budgets: step halvings per Newton step, Newton steps per sweep, sweeps, nodes.
_MAX_BACKTRACKS = 8
_MAX_NEWTON = 50
_MAX_MESH_SWEEPS = 12
_MAX_NODES = 20000


class BvpProblem:
    """First-order system ``y' = rhs(x, y)`` on [0, 1] with m conditions at x = 0.

    ``rhs`` is vectorized: it maps abscissae of shape ``(n,)`` and states of
    shape ``(m, n)`` to derivatives of shape ``(m, n)``.  ``jac`` takes the
    same arguments and returns the lower-triangular Jacobian as the pair
    ``(diag, couplings)``: ``diag[r]`` of shape (m, n) is d rhs_r / d y_r,
    each ``(r, c, values)`` of ``couplings`` gives d rhs_r / d y_c, c < r,
    in ``values`` of shape (n,), and an entry not listed is zero; the shapes
    and c < r are checked on the initial guess.  The rhs should be
    autonomous: the continuous extension takes y'' = J f at the nodes,
    which holds when rhs does not depend on x (otherwise the extension, and
    with it the residual estimate, loses its sixth order).  ``y0``, of
    shape (m,), is the state at x = 0: the m conditions y(0) = y0.  With the
    triangular Jacobian this lets each Newton step march from x = 0 one
    component at a time.
    ``initial_guess`` maps abscissae of shape ``(k,)`` in [0, 1] to states
    of shape ``(m, k)``.  It is read once, here, at the nodes of
    ``initial_mesh`` and the two interior stage points of every interval
    (:func:`stage_abscissae`); ``initial_samples`` holds those values, laid
    out as :func:`_collocation_points`, and ``initial_jac`` the ``jac`` that
    checks them, which the first Newton step reuses.  Anything else is
    refused with :class:`BadProblem`.
    """

    def __init__(self, rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 jac: Callable[[np.ndarray, np.ndarray], tuple], y0: np.ndarray,
                 initial_mesh: np.ndarray,
                 initial_guess: Callable[[np.ndarray], np.ndarray], tol: float = 1e-8):
        self.rhs = rhs
        self.jac = jac
        self.initial_guess = initial_guess
        self.tol = tol
        x = self.initial_mesh = _floats(initial_mesh, "initial_mesh")
        if x.ndim != 1 or x.size < 2 or not np.all(np.diff(x) > 0):
            raise BadProblem("mesh must be strictly increasing")
        if x[0] != 0.0 or x[-1] != 1.0:
            raise BadProblem("mesh must run from 0 to 1")
        if not self.tol > 0:
            raise BadProblem("tol must be positive")
        self.y0 = _floats(y0, "y0")
        m = self.y0.size
        if self.y0.shape != (m,) or m == 0:
            raise BadProblem(f"y0 has shape {self.y0.shape}; expected (m,)")
        if not np.all(np.isfinite(self.y0)):
            raise BadProblem("y0 must be finite")
        xz = _collocation_points(x)
        Z = self.initial_samples = _floats(self.initial_guess(xz), "initial_guess")
        if Z.shape != (m, xz.size):
            raise BadProblem(f"initial_guess returned shape {Z.shape} at {xz.size} "
                             f"points for y0 of shape {(m,)}; expected {(m, xz.size)}")
        if not np.all(np.isfinite(Z)):
            raise BadProblem("initial_guess must be finite")
        J = self.initial_jac = self.jac(xz, Z)
        if not (isinstance(J, tuple) and len(J) == 2):
            raise BadProblem("jac must return the pair (diag, couplings)")
        if np.shape(J[0]) != (m, xz.size):
            raise BadProblem(f"jac returned a diagonal of shape {np.shape(J[0])}; "
                             f"expected {(m, xz.size)}")
        for r, c, values in J[1]:
            if not 0 <= c < r < m:
                raise BadProblem(f"jac coupling ({r}, {c}) is not below the diagonal")
            if np.shape(values) != xz.shape:
                raise BadProblem(f"jac coupling ({r}, {c}) has shape "
                                 f"{np.shape(values)}; expected {xz.shape}")


def _floats(value, name):
    """``value`` as an array of floats; a ragged or non-numeric one is refused."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadProblem(f"{name} is not an array of numbers: {exc}") from None


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


class BvpSolution:
    """Converged collocation solution with its quintic extension."""

    def __init__(self, mesh: np.ndarray, y: np.ndarray, interpolant: HermiteInterpolant,
                 residual_norm: float, newton_iters: int, mesh_iterations: int,
                 newton_per_sweep: list[int]):
        self.mesh = mesh
        self.y = y
        self.interpolant = interpolant
        self.residual_norm = residual_norm
        self.newton_iters = newton_iters
        self.mesh_iterations = mesh_iterations
        self.newton_per_sweep = newton_per_sweep


def _at_points(Z, n):
    """Z at y_i, S2, S3, y_{i+1} of every interval, four slices: (..., 4, n - 1)."""
    return np.stack([Z[..., :n - 1], Z[..., n:2 * n - 1], Z[..., 2 * n - 1:],
                     Z[..., 1:n]], axis=-2)


def _collocation_residual(rhs, h, xz, Z):
    """Residual densities of the three equations of every interval.

    Returns ``(phi, F)``: phi of shape (m, 3, n - 1) holds
    (s_k - y_i) / h - sum_j _A[k, j] f_j for s_k = S2, S3, y_{i+1}, and F is
    the rhs at every point ``xz`` of the state Z.  The 1/h scaling keeps the
    Newton convergence test meaningful on strongly graded meshes: without it,
    equations on tiny intervals look converged at any state because the raw
    residual carries a factor h.
    """
    n = h.size + 1
    F = rhs(xz, Z)
    Zq = _at_points(Z, n)                                   # (m, 4, n - 1)
    phi = (Zq[:, 1:] - Zq[:, :1]) / h - _A @ _at_points(F, n)
    return phi, F


def _full_residual(rhs, y0, h, xz, Z):
    phi, F = _collocation_residual(rhs, h, xz, Z)
    return np.concatenate([phi.ravel(), Z[:, 0] - y0]), F


def _assemble_jacobian(jac, h):
    """The data of the Newton matrix of the collocation system.

    ``jac`` is the rhs Jacobian ``(diag, couplings)`` at every point of Z,
    as :class:`BvpProblem` takes it.  Returns ``(h, diag, couplings)``: diag
    of shape (m, 4, n - 1) is h_i times d rhs_r / d y_r at y_i, S2, S3 and
    y_{i+1} of interval i, and couplings[r] lists (c, hJ^{rc}), laid out
    alike, for each declared c < r where d rhs_r / d y_c is not zero everywhere.
    Equation k of interval i, (s_k - y_i) / h - sum_j _A[k, j] f_j, has the
    derivative -_A[k, j] J_j with respect to the state at its point j, plus
    I/h on s_k and -I/h on y_i; the conditions' derivative is the identity.
    """
    diag, declared = jac
    n = h.size + 1
    couplings = [[(c, _at_points(values, n) * h) for q, c, values in declared
                  if q == r and values.any()] for r in range(len(diag))]
    return h, _at_points(diag, n) * h, couplings


def _affine_prefix(M, c):
    """Compose the scalar maps z -> M[i] z + c[i]: (P[k], C[k]) of maps 0..k.

    Element k maps the value before map 0 to the value after map k, as
    P[k] z + C[k]; leading axes of M and c are independent sequences.
    Recursive doubling (Hillis & Steele, "Data parallel algorithms", CACM 29,
    1986): after the pass of stride s, element k holds the composition of
    maps k - 2s + 1 .. k, so ceil(log2 n) whole-array passes give every
    prefix.
    """
    P, C = M.copy(), c.copy()
    n = M.shape[-1]
    s = 1
    while s < n:
        # C first: it reads the P of the previous pass
        C[..., s:] += P[..., s:] * C[..., :-s]
        P[..., s:] *= P[..., :-s]
        s *= 2
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
    (m, 3, n - 1), raveled, then the m boundary residuals R_bc = y_0 - y0).
    The conditions fix the state at x = 0, so dy_0 = -R_bc.  The Jacobian
    is lower triangular, so component r of interval i's equations, times h,

        ds_k - sum_{l=1..3} _A[k, l] hJ_l^{rr} ds_l
            = -h phi^r_k + (1 + _A[k, 0] hJ_0^{rr}) dy^r_i
              + sum_j _A[k, j] sum_{c<r} hJ_j^{rc} dZ^c_j,

    for (ds_1, ds_2, ds_3) = (dS2, dS3, dy_{i+1}), is a 3 x 3 system
    G s = u + e dy^r_i once the components c < r are known.  G and e depend
    on hJ^{rr} alone: they are formed, in one vectorized pass, for the first
    component of each distinct diagonal, and shared by the components equal
    to it.  The last row of G^{-1} e and G^{-1} u gives the scalar affine
    recurrence dy^r_{i+1} = M_i dy^r_i + c_i, which :func:`_affine_prefix`
    solves for every node at once, and the first two rows then give the
    stages.  The components are marched in index order, each one alone.

    This is the whole factor-and-solve of one Newton iteration.  It is bound
    to the module name ``splu``, which ``perfbench/tracing.py`` wraps, so the
    traced ``bvp.splu_s`` is the time of this linear algebra and
    ``bvp.splu_calls`` counts Newton linear solves.

    Raises :class:`SingularJacobian` if a block G is exactly singular, or if
    a component's propagator max_k |M_{k-1} ... M_0| exceeds 1/sqrt(eps):
    the forward march is then unstable.
    """
    h, diag, couplings = jac
    m, _, nint = diag.shape
    n = nint + 1
    phi = R[:-m].reshape(m, 3, nint)
    first, slot = [], []  # component r shares the blocks of first[slot[r]]
    for r in range(m):
        slot.append(next((s for s, q in enumerate(first)
                          if np.array_equal(diag[q], diag[r])), len(first)))
        if slot[-1] == len(first):
            first.append(r)
    D = diag[first].swapaxes(0, 1)                          # (4, d, nint)
    G = np.eye(3)[:, :, None, None] - _A[:, 1:, None, None] * D[1:]
    Ginv, det = _inverse3(G)
    if not np.all(det):
        s, i = np.argwhere(det == 0.0)[0]
        raise SingularJacobian(
            f"collocation block: zero pivot in column {first[s]} of interval {i}"
        )
    Ginv = Ginv.transpose(2, 0, 1, 3)                      # (d, 3, 3, nint)
    Ge = np.einsum("rkli,lri->rki", Ginv, 1.0 + _A[:, :1, None] * D[0])
    dZ = np.empty((m, n + 2 * nint))
    dZ[:, 0] = -R[-m:]
    for r, s in enumerate(slot):
        # component r reads the components c < r, already solved
        u = -h * phi[r]
        for c, hJ in couplings[r]:
            u += _A @ (hJ * _at_points(dZ[c], n))
        u = np.einsum("kli,li->ki", Ginv[s], u)
        P, C = _affine_prefix(Ge[s, 2], u[2])
        norm = float(np.max(np.abs(P)))
        if norm > _MAX_PROPAGATOR_NORM:
            raise SingularJacobian(
                f"propagator norm {norm:.3e} exceeds {_MAX_PROPAGATOR_NORM:.3e}: "
                "the linearized problem does not contract away from x = 0"
            )
        dZ[r, 1:n] = dZ[r, 0] * P + C
        dZ[r, n:] = (u[:2] + Ge[s, :2] * dZ[r, :nint]).ravel()
    return dZ


# perfbench/tracing.py wraps the Newton linear solve under this name.
splu = _block_solve


def _newton(rhs, jac, y0, h, xz, Z, J=None):
    """Damped Newton on the collocation system; returns ``(Z, F, iterations)``.

    ``h = np.diff(x)``; ``J``, if given, is ``jac(xz, Z)`` for the first step.
    A step that does not reduce the max-norm residual |R| by the factor
    1 - 1e-4 lam is halved, up to ``_MAX_BACKTRACKS`` times, and then
    :class:`NewtonDivergence` is raised, naming |R| before the step and at
    the shortest one.  A full step at rounding level, max|dZ| <= 1e-14 scale,
    is taken with no decrease test; it, or any accepted step that small,
    ends the iteration.
    """
    R, F = _full_residual(rhs, y0, h, xz, Z)
    if not np.all(np.isfinite(R)):
        raise NewtonDivergence("residual is not finite at the initial guess")
    iters = 0
    for _ in range(_MAX_NEWTON):
        # residual densities have the units of the rhs
        scale = 1.0 + np.max(np.abs(Z)) + np.max(np.abs(F))
        norm = np.max(np.abs(R))
        if norm <= 1e-11 * scale:
            return Z, F, iters
        dZ = splu(_assemble_jacobian(jac(xz, Z) if J is None else J, h), R)
        J = None
        if not np.all(np.isfinite(dZ)):
            raise SingularJacobian("Newton linear solve produced non-finite step")

        # a full step at rounding level is taken without the decrease test:
        # the residual it leaves is at rounding level too
        rounding = np.max(np.abs(dZ)) <= 1e-14 * scale
        lam = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            Z_try = Z + lam * dZ
            R_try, F_try = _full_residual(rhs, y0, h, xz, Z_try)
            norm_try = np.max(np.abs(R_try)) if np.all(np.isfinite(R_try)) else np.inf
            if rounding or norm_try < (1.0 - 1e-4 * lam) * norm:
                break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                f"no residual decrease after {_MAX_BACKTRACKS} step halvings: "
                f"|R| = {norm:.3e}, {norm_try:.3e} at the shortest step"
            )
        Z, R, F = Z_try, R_try, F_try
        iters += 1
        if np.max(np.abs(lam * dZ)) <= 1e-14 * scale:
            return Z, F, iters
    raise NewtonDivergence(f"not converged after {_MAX_NEWTON} Newton iterations")


def _extension(jac, x, Y, f):
    """The quintic extension of node values Y with slopes f = rhs(x, Y)."""
    diag, couplings = jac(x, Y)
    fp = diag * f  # y'' = J f
    for r, c, values in couplings:
        fp[r] += values * f[c]
    return HermiteInterpolant(x, Y, f, fp)


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

    Each mesh sweep runs Newton on the current mesh, the first from the
    guess read at the nodes and stages of ``problem.initial_mesh``, and
    estimates the residual of the quintic extension; where the estimate exceeds
    ``problem.tol``, the next sweep starts from a redistributed mesh
    (:func:`_refine_mesh`), which may hold fewer nodes than the current one,
    with its nodes and stages sampled from the extension.

    Raises :class:`NewtonDivergence` for an unusable initial guess or a
    residual estimate that is not finite,
    :class:`SingularJacobian` if the linearization degenerates or its
    propagator from x = 0 grows past 1/sqrt(eps), and
    :class:`MeshLimitExceeded` if a redistributed mesh needs more than
    ``_MAX_NODES`` nodes or the residual stays above the tolerance after the
    last mesh sweep.
    """
    rhs, jac, y0 = problem.rhs, problem.jac, problem.y0
    x, Z, J = problem.initial_mesh.copy(), problem.initial_samples, problem.initial_jac
    xz, h = _collocation_points(x), np.diff(x)
    h_max = float(np.max(h))
    per_sweep: list[int] = []

    for sweep in range(1, _MAX_MESH_SWEEPS + 1):
        Z, F, iters = _newton(rhs, jac, y0, h, xz, Z, J)
        per_sweep.append(iters)
        n = x.size
        interp = _extension(jac, x, Z[:, :n], F[:, :n])
        est = _estimate_residuals(rhs, interp)
        res_norm = float(est.max())
        if not np.isfinite(res_norm):
            raise NewtonDivergence(f"residual estimate {res_norm} is not finite")
        if res_norm <= problem.tol:
            return BvpSolution(mesh=x, y=Z[:, :n], interpolant=interp,
                               residual_norm=res_norm, newton_iters=sum(per_sweep),
                               mesh_iterations=sweep, newton_per_sweep=per_sweep)
        x_new = _refine_mesh(x, est, problem.tol, h_max)
        if x_new.size > _MAX_NODES:
            raise MeshLimitExceeded(
                f"the redistributed mesh needs {x_new.size} nodes (budget {_MAX_NODES})"
            )
        x, xz, h, J = x_new, _collocation_points(x_new), np.diff(x_new), None
        Z = interp(xz)

    raise MeshLimitExceeded(
        f"residual {res_norm:.3e} > tol after {_MAX_MESH_SWEEPS} mesh sweeps"
    )
