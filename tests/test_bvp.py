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


def _linear(M):
    """rhs and analytic jac of the constant-coefficient system y' = M y."""
    M = np.asarray(M, dtype=float)

    def rhs(x, Y):
        return M @ Y

    def jac(x, Y):
        return np.broadcast_to(M, (Y.shape[1], *M.shape))

    return rhs, jac


# y'' = -y as a first-order system
_OSCILLATOR = [[0.0, 1.0], [-1.0, 0.0]]


def _ends_bc(a, b):
    """y_0(0) = a and y_0(1) = b for a 2-dimensional system, as (Ba, Bb, g)."""
    return [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [a, b]


def _sine_problem(n, tol=1e-8):
    # y(0) = 0, y(1) = sin 1  ->  y = sin x
    rhs, jac = _linear(_OSCILLATOR)
    mesh = np.linspace(0.0, 1.0, n)
    return BvpProblem(rhs=rhs, jac=jac, bc=_ends_bc(0.0, np.sin(1.0)),
                      initial_mesh=mesh, initial_guess=np.zeros((2, n)), tol=tol)


def _mixed_sine_problem(n):
    # y = sin x again, but each condition couples both ends, so the
    # boundary solve needs the propagator to x = 1 in full:
    # y_0(0) + y_1(1) = cos 1 and y_1(0) - y_0(1) = 1 - sin 1
    rhs, jac = _linear(_OSCILLATOR)
    bc = ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]],
          [np.cos(1.0), 1.0 - np.sin(1.0)])
    mesh = np.linspace(0.0, 1.0, n)
    return BvpProblem(rhs=rhs, jac=jac, bc=bc, initial_mesh=mesh,
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


def _block_and_dense_steps(p, x, Y):
    R, f, y_mid, x_mid = bvp._full_residual(p.rhs, p.bc, x, Y)
    blocks = bvp._assemble_jacobian(p.jac, p.bc, x, Y, y_mid, x_mid)
    dense = np.linalg.solve(_dense_newton_matrix(*blocks), -R)
    return bvp._block_solve(blocks, R), dense.reshape(x.size, Y.shape[0]).T


def test_block_step_matches_dense_solve_on_coupled_system(exact_cfg, quad_flux,
                                                          exact_freq):
    sys = FoldedSystem(cfg=exact_cfg, flux=quad_flux, freq=exact_freq, L=20.0)
    mesh, Y0 = initial_guess(sys)
    assert mesh.size == 401
    step, ref = _block_and_dense_steps(sys, mesh, Y0)
    assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_mixed_end_conditions():
    p = _mixed_sine_problem(11)
    step, ref = _block_and_dense_steps(p, p.initial_mesh, p.initial_guess)
    assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))
    sol = bvp_solve(p)
    assert np.max(np.abs(sol.y[0] - np.sin(sol.mesh))) < 1e-8
    assert sol.residual_norm <= 1e-8


def test_jacobians_reuse_the_residual_evaluations():
    # assembly makes no rhs call: the analytic jac is evaluated once at the
    # nodes and once at the residual's own midpoint states, and the boundary
    # rows are the problem's own affine matrices
    p = _mixed_sine_problem(11)
    x, Y = p.initial_mesh, p.initial_guess + 0.25
    rhs_calls, jac_points = [], []

    def rhs(x, Y):
        rhs_calls.append(Y)
        return p.rhs(x, Y)

    def jac(x, Y):
        jac_points.append((x.copy(), Y.copy()))
        return p.jac(x, Y)

    R, f, y_mid, x_mid = bvp._full_residual(rhs, p.bc, x, Y)
    Ba, Bb, g = p.bc
    assert np.array_equal(R[-2:], Ba @ Y[:, 0] + Bb @ Y[:, -1] - g)
    rhs_calls.clear()
    _, _, dga, dgb = bvp._assemble_jacobian(jac, p.bc, x, Y, y_mid, x_mid)
    assert rhs_calls == []
    assert len(jac_points) == 2
    (xn, Yn), (xm, Ym) = jac_points
    assert np.array_equal(xn, x) and np.array_equal(Yn, Y)
    assert np.array_equal(xm, x_mid) and np.array_equal(Ym, y_mid)
    assert dga is Ba and dgb is Bb


def _affine_maps(rng, m, nint):
    """Augmented maps [[Q, c], [0, 1]] with orthogonal Q."""
    G = np.zeros((nint, m + 1, m + 1))
    G[:, :m, :m] = np.linalg.qr(rng.standard_normal((nint, m, m)))[0]
    G[:, :m, m] = rng.standard_normal((nint, m))
    G[:, m, m] = 1.0
    return G


@pytest.mark.parametrize("nint", [1, 2, 3, 400, 4397])
def test_prefix_scan_matches_sequential_composition(nint):
    m = 4
    G = _affine_maps(np.random.default_rng(nint), m, nint)
    ref = np.empty_like(G)
    ref[0] = G[0]
    for k in range(1, nint):
        ref[k] = G[k] @ ref[k - 1]
    # orthogonal factors: rounding grows at most linearly with the length
    tol = nint * (m + 1) * np.finfo(float).eps * np.max(np.abs(ref))
    assert np.max(np.abs(bvp._prefix_products(G) - ref)) <= tol


def _row_swapping_blocks(rng, m, nint):
    """Diagonally dominant blocks with their rows shuffled, interval first.

    The dominant entry of each column sits off the diagonal in most blocks,
    so partial pivoting has to swap rows.
    """
    D = 4.0 * np.eye(m) + rng.uniform(-1.0, 1.0, (nint, m, m))
    perm = np.array([rng.permutation(m) for _ in range(nint)])
    return np.take_along_axis(D, perm[:, :, None], axis=1), perm


def test_block_elimination_matches_dense_solve_with_row_swaps():
    rng = np.random.default_rng(11)
    m, k, nint = 4, 5, 300
    B, perm = _row_swapping_blocks(rng, m, nint)
    assert np.mean(perm[:, 0] != 0) > 0.5
    F = rng.standard_normal((nint, m, k))
    W = np.concatenate([B, F], axis=2).transpose(1, 2, 0).copy()
    X = bvp._eliminate(W, m).transpose(2, 0, 1)
    ref = np.linalg.solve(B, F)
    assert np.max(np.abs(X - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_zero_pivot_column_raises_collocation_block_error():
    rng = np.random.default_rng(5)
    m, nint = 4, 20
    B, _ = _row_swapping_blocks(rng, m, nint)
    B[7, :, 2] = 0.0
    A = rng.standard_normal((nint, m, m))
    R = rng.standard_normal(nint * m + m)
    eye = np.eye(m)
    with pytest.raises(SingularJacobian, match="collocation block: .*interval 7"):
        bvp._block_solve((A, B, eye, eye), R)


def _inline_hermite(y_lo, y_hi, f_lo, f_hi, h, t, t3):
    """The cubic Hermite basis written out, as the residual estimate had it."""
    t2 = t * t
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
    return S, Sp


def test_residual_estimate_matches_inline_basis(exact_cfg, quad_flux, exact_freq):
    sys = FoldedSystem(cfg=exact_cfg, flux=quad_flux, freq=exact_freq, L=20.0)
    x, Y = initial_guess(sys)
    f = sys.rhs(x, Y)
    h = np.diff(x)
    est_sq = np.zeros(x.size - 1)
    for t in bvp._RES_THETA:
        S, Sp = _inline_hermite(Y[:, :-1], Y[:, 1:], f[:, :-1], f[:, 1:], h, t,
                                t ** 3)
        fq = sys.rhs(x[:-1] + t * h, S)
        rel = (Sp - fq) / (1.0 + np.abs(fq))
        est_sq += bvp._RES_WEIGHT * np.sum(rel * rel, axis=0)
    assert np.array_equal(bvp._estimate_residuals(sys.rhs, x, Y, f), np.sqrt(est_sq))


def test_interpolant_matches_inline_basis():
    sol = bvp_solve(_sine_problem(11))
    interp = sol.interpolant
    xq = np.random.default_rng(3).uniform(0.0, 1.0, 50)
    idx = np.clip(np.searchsorted(interp.x, xq, side="right") - 1, 0,
                  interp.x.size - 2)
    h = interp.x[idx + 1] - interp.x[idx]
    t = (xq - interp.x[idx]) / h
    S, _ = _inline_hermite(interp.y[:, idx], interp.y[:, idx + 1],
                           interp.yp[:, idx], interp.yp[:, idx + 1], h, t,
                           t * t * t)
    assert np.array_equal(interp(xq), S)
    assert np.array_equal(interp(xq[7]), S[:, 7])


def test_dichotomic_problem_refused_with_propagator_norm():
    # y'' = 1600 y has a mode growing like exp(40 x): marching from x = 0
    # cannot be stable, whatever the conditioning of the BVP itself
    rhs, jac = _linear([[0.0, 1.0], [1600.0, 0.0]])
    mesh = np.linspace(0.0, 1.0, 41)
    p = BvpProblem(rhs=rhs, jac=jac, bc=_ends_bc(1.0, 0.0), initial_mesh=mesh,
                   initial_guess=np.zeros((2, 41)))
    with pytest.raises(SingularJacobian, match=r"propagator norm \d\.\d{3}e\+\d+"):
        bvp_solve(p)


def _graded_mesh_and_estimate(seed, tol):
    """A random graded mesh on [0, 1] with est = C(x) h**3, C a narrow bump."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 300)), [1.0]])
    h = np.diff(x)
    mid = x[:-1] + 0.5 * h
    C = 1e3 * np.exp(-((mid - 0.37) / 0.05) ** 2) + 1e-6
    return x, C * h**3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_redistributed_mesh_keeps_ends_and_bounds_widths(seed):
    tol = 1e-8
    x, est = _graded_mesh_and_estimate(seed, tol)
    h_max = float(np.max(np.diff(x)))
    new = bvp._refine_mesh(x, est, tol, h_max)
    assert new[0] == x[0] and new[-1] == x[-1]
    assert np.all(np.diff(new) > 0.0)
    assert np.max(np.diff(new)) <= h_max * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_redistributed_mesh_meets_predicted_estimates(seed):
    # with est = C h**3, C constant on each old interval, the cube root of the
    # estimate is additive in length: a new interval's predicted estimate is
    # (integral of C**(1/3) over it)**3
    tol = 1e-8
    x, est = _graded_mesh_and_estimate(seed, tol)
    new = bvp._refine_mesh(x, est, tol, float(np.max(np.diff(x))))
    root = np.interp(new, x, np.concatenate([[0.0], np.cumsum(np.cbrt(est))]))
    predicted = np.diff(root) ** 3
    assert np.max(predicted) <= bvp._MESH_THETA * tol * (1.0 + 1e-9)


def test_redistribution_removes_surplus_nodes():
    # a fine uniform mesh whose estimate is far below tol shrinks back to
    # the node spacing h_max allows
    x = np.linspace(0.0, 1.0, 1001)
    new = bvp._refine_mesh(x, np.full(1000, 1e-20), 1e-8, 0.1)
    assert 11 <= new.size <= 12
    assert new[0] == 0.0 and new[-1] == 1.0


def test_manufactured_sine_problem():
    sol = bvp_solve(_sine_problem(11))
    assert np.max(np.abs(sol.y[0] - np.sin(sol.mesh))) < 1e-8
    assert sol.residual_norm <= 1e-8


def test_interpolant_reproduces_mesh_samples_exactly():
    sol = bvp_solve(_sine_problem(11))
    assert np.array_equal(sol.interpolant(sol.mesh), sol.y)


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
    rhs, jac = _linear(_OSCILLATOR)
    mesh = np.linspace(0.0, 1.0, 5)
    for bc in [
        ([[1.0, 0.0]], [[0.0, 0.0]], [0.0]),               # one condition for two
        (np.eye(2), np.zeros((2, 2)), [0.0, 0.0, 0.0]),   # three right sides
        (np.eye(2), np.zeros((2, 3)), [0.0, 0.0]),        # Bb of the wrong width
        (np.eye(2), [0.0, 0.0]),                          # no Bb
    ]:
        with pytest.raises(BadProblem, match=r"bc \(Ba, Bb, g\) has shapes"):
            BvpProblem(rhs=rhs, jac=jac, bc=bc,
                       initial_mesh=mesh, initial_guess=np.zeros((2, 5)))


def test_bc_callable_rejected_at_construction():
    rhs, jac = _linear(_OSCILLATOR)
    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem, match=r"bc must be the triple"):
        BvpProblem(rhs=rhs, jac=jac, bc=lambda ya, yb: np.array([ya[0], yb[0]]),
                   initial_mesh=mesh, initial_guess=np.zeros((2, 5)))


@pytest.mark.parametrize("shape", [(1, 2), (2, 2, 1), (1, 2, 3), (1, 1, 1)])
def test_jac_shape_mismatch_rejected_at_construction(shape):
    rhs, _ = _linear(_OSCILLATOR)
    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem, match=r"jac returned shape"):
        BvpProblem(rhs=rhs, jac=lambda x, Y: np.zeros(shape),
                   bc=_ends_bc(0.0, 0.0),
                   initial_mesh=mesh, initial_guess=np.zeros((2, 5)))


def test_mesh_validation():
    rhs, jac = _linear([[1.0]])
    bad = np.array([0.0, 0.5, 0.4, 1.0])
    with pytest.raises(BadProblem):
        BvpProblem(rhs=rhs, jac=jac, bc=([[1.0]], [[0.0]], [0.0]),
                   initial_mesh=bad, initial_guess=np.zeros((1, 4)))
    with pytest.raises(BadProblem):
        BvpProblem(rhs=rhs, jac=jac, bc=([[1.0]], [[0.0]], [0.0]),
                   initial_mesh=np.linspace(0.1, 1.0, 4),
                   initial_guess=np.zeros((1, 4)))


def test_newton_divergence_on_bad_guess():
    p = _sine_problem(11)
    p.initial_guess = np.full((2, 11), np.nan)
    with pytest.raises(NewtonDivergence):
        bvp_solve(p)


def test_newton_iteration_budget(monkeypatch):
    def rhs(x, Y):
        return np.vstack([Y[1], np.exp(Y[0])])

    def jac(x, Y):
        J = np.zeros((Y.shape[1], 2, 2))
        J[:, 0, 1] = 1.0
        J[:, 1, 0] = np.exp(Y[0])
        return J

    mesh = np.linspace(0.0, 1.0, 21)
    p = BvpProblem(rhs=rhs, jac=jac, bc=_ends_bc(0.0, 0.0), initial_mesh=mesh,
                   initial_guess=np.vstack([np.full(21, 3.0), np.zeros(21)]),
                   tol=1e-8)
    monkeypatch.setattr(bvp, "_MAX_NEWTON", 1)
    with pytest.raises(NewtonDivergence):
        bvp_solve(p)


def test_singular_jacobian_detected():
    # contradictory conditions on y1 leave y2 unconstrained:
    # y_0(0) - y_0(1) = 0 and y_0(0) - y_0(1) = 1
    rhs, jac = _linear(np.zeros((2, 2)))
    bc = ([[1.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [-1.0, 0.0]], [0.0, 1.0])
    mesh = np.linspace(0.0, 1.0, 6)
    p = BvpProblem(rhs=rhs, jac=jac, bc=bc, initial_mesh=mesh,
                   initial_guess=np.zeros((2, 6)))
    with pytest.raises(SingularJacobian):
        bvp_solve(p)


def test_mesh_limit_exceeded(monkeypatch):
    monkeypatch.setattr(bvp, "_MAX_NODES", 10)
    with pytest.raises(MeshLimitExceeded):
        bvp_solve(_sine_problem(5, tol=1e-12))


def test_newton_counts_reported():
    sol = bvp_solve(_sine_problem(11))
    assert sol.newton_iters == sum(sol.newton_per_sweep)
    assert len(sol.newton_per_sweep) == sol.mesh_iterations
