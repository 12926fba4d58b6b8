import numpy as np
import pytest

from shockbeta.errors import (
    BadProblem,
    MeshLimitExceeded,
    NewtonDivergence,
    SingularJacobian,
)
from shockbeta.coupled import FoldedSystem, initial_guess
from shockbeta.numerics import BvpProblem, bvp, bvp_solve


def _sine_problem(n, tol=1e-8):
    # y'' = -y as a first-order system; y(0) = 0, y(1) = sin 1  ->  y = sin x
    def rhs(x, Y):
        return np.vstack([Y[1], -Y[0]])

    def bc(ya, yb):
        return np.array([ya[0], yb[0] - np.sin(1.0)])

    mesh = np.linspace(0.0, 1.0, n)
    return BvpProblem(rhs=rhs, bc=bc, initial_mesh=mesh,
                      initial_guess=np.zeros((2, n)), tol=tol)


def _mixed_sine_problem(n):
    # y = sin x again, but each condition couples both ends, so the
    # boundary solve needs the propagator to x = 1 in full
    def rhs(x, Y):
        return np.vstack([Y[1], -Y[0]])

    def bc(ya, yb):
        return np.array([ya[0] + yb[1] - np.cos(1.0),
                         ya[1] - yb[0] - (1.0 - np.sin(1.0))])

    mesh = np.linspace(0.0, 1.0, n)
    return BvpProblem(rhs=rhs, bc=bc, initial_mesh=mesh,
                      initial_guess=np.zeros((2, n)))


def _dense_newton_matrix(A, B, dga, dgb):
    """The Newton matrix the block solve condenses: interval rows, then bc rows."""
    nint, m, _ = A.shape
    n = nint + 1
    J = np.zeros((n * m, n * m))
    for i in range(nint):
        J[i * m:(i + 1) * m, i * m:(i + 1) * m] = A[i]
        J[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = B[i]
    J[nint * m:, :m] = dga
    J[nint * m:, nint * m:] = dgb
    return J


def _block_and_dense_steps(rhs, bc, x, Y):
    R, f, f_mid, y_mid, x_mid = bvp._full_residual(rhs, bc, x, Y)
    jac = bvp._assemble_jacobian(rhs, bc, x, Y, f, f_mid, y_mid, x_mid)
    dense = np.linalg.solve(_dense_newton_matrix(*jac), -R)
    return bvp._block_solve(jac, R), dense.reshape(x.size, Y.shape[0]).T


def test_block_step_matches_dense_solve_on_coupled_system(exact_cfg, quad_flux,
                                                          exact_freq):
    sys = FoldedSystem(cfg=exact_cfg, flux=quad_flux, freq=exact_freq, L=20.0)
    mesh, Y0 = initial_guess(sys)
    assert mesh.size == 401
    step, ref = _block_and_dense_steps(sys.rhs, sys.bc, mesh, Y0)
    assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_mixed_end_conditions():
    p = _mixed_sine_problem(11)
    step, ref = _block_and_dense_steps(p.rhs, p.bc, p.initial_mesh,
                                       p.initial_guess)
    assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))
    sol = bvp_solve(p)
    assert np.max(np.abs(sol.y[0] - np.sin(sol.mesh))) < 1e-8
    assert sol.residual_norm <= 1e-8


def test_dichotomic_problem_refused_with_propagator_norm():
    # y'' = 1600 y has a mode growing like exp(40 x): marching from x = 0
    # cannot be stable, whatever the conditioning of the BVP itself
    def rhs(x, Y):
        return np.vstack([Y[1], 1600.0 * Y[0]])

    def bc(ya, yb):
        return np.array([ya[0] - 1.0, yb[0]])

    mesh = np.linspace(0.0, 1.0, 41)
    p = BvpProblem(rhs=rhs, bc=bc, initial_mesh=mesh,
                   initial_guess=np.zeros((2, 41)))
    with pytest.raises(SingularJacobian, match=r"propagator norm \d\.\d{3}e\+\d+"):
        bvp_solve(p)


def test_refinement_inserts_thirds_and_midpoints_in_order():
    rng = np.random.default_rng(7)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 200)), [1.0]])
    tol = 1e-8
    est = tol * 10.0 ** rng.uniform(-1.0, 3.0, x.size - 1)
    # the per-interval rule, written out
    expected = [x[0]]
    for i in range(x.size - 1):
        if est[i] > 100.0 * tol:
            expected.extend(x[i] + np.array([1 / 3, 2 / 3]) * (x[i + 1] - x[i]))
        elif est[i] > tol:
            expected.append(0.5 * (x[i] + x[i + 1]))
        expected.append(x[i + 1])
    assert np.array_equal(bvp._refine_mesh(x, est, tol), np.array(expected))


def test_manufactured_sine_problem():
    sol = bvp_solve(_sine_problem(11))
    assert np.max(np.abs(sol.y[0] - np.sin(sol.mesh))) < 1e-8
    assert sol.residual_norm <= 1e-8


def test_interpolant_reproduces_mesh_samples_exactly():
    sol = bvp_solve(_sine_problem(11))
    assert np.array_equal(sol.interpolant(sol.mesh), sol.y)


def test_interpolant_first_derivative_continuity():
    sol = bvp_solve(_sine_problem(11))
    eps = 1e-13
    xi = sol.mesh[1:-1]
    jump = sol.interpolant.derivative(xi + eps) - sol.interpolant.derivative(xi - eps)
    scale = 1.0 + np.max(np.abs(sol.yp))
    assert np.max(np.abs(jump)) <= 1e-10 * scale


def test_convergence_order_fourth():
    # refinement disabled (loose tol) so the mesh sets the error
    errs = []
    sizes = [8, 11, 16, 21, 31, 41]
    for n in sizes:
        sol = bvp_solve(_sine_problem(n, tol=10.0))
        errs.append(np.max(np.abs(sol.y[0] - np.sin(sol.mesh))))
    hs = 1.0 / (np.array(sizes) - 1)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 3.95


def test_bc_count_mismatch_rejected_at_construction():
    def rhs(x, Y):
        return np.vstack([Y[1], -Y[0]])

    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem):
        BvpProblem(rhs=rhs, bc=lambda ya, yb: np.array([ya[0]]),
                   initial_mesh=mesh, initial_guess=np.zeros((2, 5)))


def test_mesh_validation():
    def rhs(x, Y):
        return Y

    bad = np.array([0.0, 0.5, 0.4, 1.0])
    with pytest.raises(BadProblem):
        BvpProblem(rhs=rhs, bc=lambda ya, yb: np.array([ya[0]]),
                   initial_mesh=bad, initial_guess=np.zeros((1, 4)))
    with pytest.raises(BadProblem):
        BvpProblem(rhs=rhs, bc=lambda ya, yb: np.array([ya[0]]),
                   initial_mesh=np.linspace(0.1, 1.0, 4),
                   initial_guess=np.zeros((1, 4)))


def test_newton_divergence_on_bad_guess():
    p = _sine_problem(11)
    p.initial_guess = np.full((2, 11), np.nan)
    with pytest.raises(NewtonDivergence):
        bvp_solve(p)


def test_newton_iteration_budget():
    def rhs(x, Y):
        return np.vstack([Y[1], np.exp(Y[0])])

    def bc(ya, yb):
        return np.array([ya[0], yb[0]])

    mesh = np.linspace(0.0, 1.0, 21)
    p = BvpProblem(rhs=rhs, bc=bc, initial_mesh=mesh,
                   initial_guess=np.vstack([np.full(21, 3.0), np.zeros(21)]),
                   tol=1e-8)
    with pytest.raises(NewtonDivergence):
        bvp_solve(p, max_newton=1)


def test_singular_jacobian_detected():
    # contradictory conditions on y1 leave y2 unconstrained
    def rhs(x, Y):
        return np.zeros_like(Y)

    def bc(ya, yb):
        return np.array([ya[0] - yb[0], ya[0] - yb[0] - 1.0])

    mesh = np.linspace(0.0, 1.0, 6)
    p = BvpProblem(rhs=rhs, bc=bc, initial_mesh=mesh, initial_guess=np.zeros((2, 6)))
    with pytest.raises(SingularJacobian):
        bvp_solve(p)


def test_mesh_limit_exceeded():
    with pytest.raises(MeshLimitExceeded):
        bvp_solve(_sine_problem(5, tol=1e-12), max_nodes=10)


def test_newton_counts_reported():
    sol = bvp_solve(_sine_problem(11))
    assert sol.newton_iters == sum(sol.newton_per_sweep)
    assert len(sol.newton_per_sweep) == sol.mesh_iterations
