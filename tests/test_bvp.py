import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _decay_rhs(x, Y):
    """y0' = -y0**2, y1' = y0: lower triangular, contracting from x = 0."""
    return np.vstack([-Y[0] ** 2, Y[0]])


def _decay_jac(x, Y):
    J = np.zeros((Y.shape[1], 2, 2))
    J[:, 0, 0] = -2.0 * Y[0]
    J[:, 1, 0] = 1.0
    return J


def _decay_exact(x):
    """The solution with y(0) = (1, 0)."""
    return np.vstack([1.0 / (1.0 + x), np.log1p(x)])


def _start_bc(y0):
    """y(0) = y0 as (Ba, Bb, g)."""
    m = len(y0)
    return np.eye(m), np.zeros((m, m)), y0


def _decay_problem(n, tol=1e-8):
    mesh = np.linspace(0.0, 1.0, n)
    guess = np.vstack([np.ones(n), np.zeros(n)])
    return BvpProblem(rhs=_decay_rhs, jac=_decay_jac, bc=_start_bc([1.0, 0.0]),
                      initial_mesh=mesh, initial_guess=guess, tol=tol)


def _dense_newton_matrix(A, B, Ba):
    """The Newton matrix the block solve condenses: interval rows, then bc rows."""
    m, _, nint = A.shape
    n = nint + 1
    J = np.zeros((n * m, n * m))
    for i in range(nint):
        J[i * m:(i + 1) * m, i * m:(i + 1) * m] = A[:, :, i]
        J[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = B[:, :, i]
    J[nint * m:, :m] = Ba
    return J


def _dense_step(blocks, R):
    m = blocks[2].shape[0]
    return np.linalg.solve(_dense_newton_matrix(*blocks), -R).reshape(-1, m).T


def test_block_step_matches_dense_solve_on_coupled_system(exact_cfg, quad_flux,
                                                          exact_freq):
    sys = FoldedSystem(cfg=exact_cfg, flux=quad_flux, freq=exact_freq, L=20.0)
    mesh, Y0 = initial_guess(sys)
    assert mesh.size == 401
    R, f, y_mid, x_mid = bvp._full_residual(sys.rhs, sys.bc, mesh, Y0)
    blocks = bvp._assemble_jacobian(sys.jac, sys.bc, mesh, Y0, y_mid, x_mid)
    ref = _dense_step(blocks, R)
    step = bvp._block_solve(blocks, R)
    assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_blocks_match_the_matrix_formula(exact_cfg, quad_flux, exact_freq):
    # d(phi_i)/d(y_i) = -I/h - J_i/6 - (2/3) J_mid (I/2 + (h/8) J_i), and
    # d(phi_i)/d(y_{i+1}) = I/h - J_{i+1}/6 - (2/3) J_mid (I/2 - (h/8) J_{i+1}),
    # as batched matrix products
    sys = FoldedSystem(cfg=exact_cfg, flux=quad_flux, freq=exact_freq, L=20.0)
    x, Y = initial_guess(sys)
    R, f, y_mid, x_mid = bvp._full_residual(sys.rhs, sys.bc, x, Y)
    A, B, _ = bvp._assemble_jacobian(sys.jac, sys.bc, x, Y, y_mid, x_mid)
    Jn, Jm = sys.jac(x, Y), sys.jac(x_mid, y_mid)
    h = np.diff(x)[:, None, None]
    eye = np.eye(4)
    lo, hi = Jn[:-1], Jn[1:]
    A_ref = -eye / h - lo / 6.0 - (2.0 / 3.0) * (Jm @ (eye / 2 + h / 8 * lo))
    B_ref = eye / h - hi / 6.0 - (2.0 / 3.0) * (Jm @ (eye / 2 - h / 8 * hi))
    tol = 4 * np.finfo(float).eps
    for got, ref in ((A, A_ref), (B, B_ref)):
        ref = ref.transpose(1, 2, 0)
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 4), nint=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_block_step_matches_dense_solve_on_random_lower_blocks(m, nint, seed):
    # diagonal maps M = -A^rr / B^rr of modulus at most 1 keep the march
    # (and the dense solve) well conditioned; Ba is a full matrix
    rng = np.random.default_rng(seed)
    A = np.tril(rng.uniform(-1.0, 1.0, (nint, m, m))).transpose(1, 2, 0)
    B = np.tril(rng.uniform(-1.0, 1.0, (nint, m, m))).transpose(1, 2, 0)
    diag = np.arange(m)
    sign = rng.choice([-1.0, 1.0], (m, nint))
    B[diag, diag] = sign * rng.uniform(1.0, 2.0, (m, nint))
    A[diag, diag] = B[diag, diag] * rng.uniform(-1.0, 1.0, (m, nint))
    Ba = rng.uniform(-1.0, 1.0, (m, m)) + m * np.eye(m)
    R = rng.standard_normal((nint + 1) * m)
    step = bvp._block_solve((A, B, Ba), R)
    ref = _dense_step((A, B, Ba), R)
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_jacobians_reuse_the_residual_evaluations():
    # assembly makes no rhs call: the analytic jac is evaluated once at the
    # nodes and once at the residual's own midpoint states, and the boundary
    # rows are the problem's own affine matrix
    p = _decay_problem(11)
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
    assert np.array_equal(R[-2:], Ba @ Y[:, 0] - g)
    rhs_calls.clear()
    A, B, dga = bvp._assemble_jacobian(jac, p.bc, x, Y, y_mid, x_mid)
    assert rhs_calls == []
    assert len(jac_points) == 2
    (xn, Yn), (xm, Ym) = jac_points
    assert np.array_equal(xn, x) and np.array_equal(Yn, Y)
    assert np.array_equal(xm, x_mid) and np.array_equal(Ym, y_mid)
    assert dga is Ba
    assert A.shape == B.shape == (2, 2, x.size - 1)
    assert not np.any(A[0, 1]) and not np.any(B[0, 1])


@pytest.mark.parametrize("nint", [1, 2, 3, 400, 4397])
def test_prefix_scan_matches_sequential_composition(nint):
    rng = np.random.default_rng(nint)
    M = rng.choice([-1.0, 1.0], nint) * rng.uniform(0.9, 1.0, nint)
    c = rng.standard_normal(nint)
    ref = np.empty((2, nint))
    mag = np.empty(nint)  # the same recurrence in absolute values
    P, C, Q = 1.0, 0.0, 0.0
    for k in range(nint):
        P, C, Q = M[k] * P, M[k] * C + c[k], abs(M[k]) * Q + abs(c[k])
        ref[:, k], mag[k] = (P, C), Q
    # each value is a sum of at most nint + 1 products of at most nint
    # factors, in some order: rounding stays below 2 nint eps of its magnitude
    tol = 2 * nint * np.finfo(float).eps
    got = np.array(bvp._affine_prefix(M, c))
    assert np.all(np.abs(got[0] - ref[0]) <= tol * np.abs(ref[0]))
    assert np.all(np.abs(got[1] - ref[1]) <= tol * mag)


def test_zero_pivot_column_raises_collocation_block_error():
    rng = np.random.default_rng(5)
    m, nint = 4, 20
    A = np.tril(rng.standard_normal((nint, m, m))).transpose(1, 2, 0)
    B = np.tril(rng.standard_normal((nint, m, m))).transpose(1, 2, 0)
    B[np.arange(m), np.arange(m)] += 4.0
    B[2, 2, 7] = 0.0
    R = rng.standard_normal(nint * m + m)
    with pytest.raises(SingularJacobian,
                       match="collocation block: .*column 2 of interval 7"):
        bvp._block_solve((A, B, np.eye(m)), R)


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
    sol = bvp_solve(_decay_problem(11))
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
    # y' = 40 y grows like exp(40 x): marching from x = 0 amplifies by about
    # that much, whatever the conditioning of the problem itself
    rhs, jac = _linear([[40.0]])
    mesh = np.linspace(0.0, 1.0, 41)
    p = BvpProblem(rhs=rhs, jac=jac, bc=_start_bc([1.0]), initial_mesh=mesh,
                   initial_guess=np.zeros((1, 41)))
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
    sol = bvp_solve(_decay_problem(11))
    assert np.max(np.abs(sol.y - _decay_exact(sol.mesh))) < 1e-8
    assert sol.residual_norm <= 1e-8


def test_interpolant_reproduces_mesh_samples_exactly():
    sol = bvp_solve(_decay_problem(11))
    assert np.array_equal(sol.interpolant(sol.mesh), sol.y)


def test_convergence_order_fourth():
    # refinement disabled (loose tol) so the mesh sets the error
    errs = []
    sizes = [8, 11, 16, 21, 31, 41]
    for n in sizes:
        sol = bvp_solve(_decay_problem(n, tol=10.0))
        errs.append(np.max(np.abs(sol.y - _decay_exact(sol.mesh))))
    hs = 1.0 / (np.array(sizes) - 1)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 3.95


def test_bc_count_mismatch_rejected_at_construction():
    mesh = np.linspace(0.0, 1.0, 5)
    for bc in [
        ([[1.0, 0.0]], [[0.0, 0.0]], [0.0]),               # one condition for two
        (np.eye(2), np.zeros((2, 2)), [0.0, 0.0, 0.0]),   # three right sides
        (np.eye(2), np.zeros((2, 3)), [0.0, 0.0]),        # Bb of the wrong width
        (np.eye(2), [0.0, 0.0]),                          # no Bb
    ]:
        with pytest.raises(BadProblem, match=r"bc \(Ba, Bb, g\) has shapes"):
            BvpProblem(rhs=_decay_rhs, jac=_decay_jac, bc=bc,
                       initial_mesh=mesh, initial_guess=np.ones((2, 5)))


def test_bc_callable_rejected_at_construction():
    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem, match=r"bc must be the triple"):
        BvpProblem(rhs=_decay_rhs, jac=_decay_jac,
                   bc=lambda ya, yb: np.array([ya[0], yb[0]]),
                   initial_mesh=mesh, initial_guess=np.ones((2, 5)))


@pytest.mark.parametrize("bc, match", [
    # y_0(0) = 1 and y_0(1) = 0: a condition at x = 1
    (([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0]),
     r"every condition must sit at x = 0: Bb must be 0"),
    # y_0(0) = 1 twice leaves y_1(0) free
    (([[1.0, 0.0], [1.0, 0.0]], np.zeros((2, 2)), [1.0, 1.0]),
     r"Ba is singular"),
])
def test_conditions_away_from_the_start_rejected_at_construction(bc, match):
    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem, match=match):
        BvpProblem(rhs=_decay_rhs, jac=_decay_jac, bc=bc,
                   initial_mesh=mesh, initial_guess=np.ones((2, 5)))


def test_upper_triangular_jac_entry_rejected_at_construction():
    # y'' = -y couples y_0' to y_1: d rhs_0 / d y_1 = 1 above the diagonal
    rhs, jac = _linear([[0.0, 1.0], [-1.0, 0.0]])
    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem, match=r"jac must be lower triangular"):
        BvpProblem(rhs=rhs, jac=jac, bc=_start_bc([0.0, 1.0]),
                   initial_mesh=mesh, initial_guess=np.zeros((2, 5)))


@pytest.mark.parametrize("shape", [(1, 2), (2, 2, 1), (1, 2, 3), (1, 1, 1)])
def test_jac_shape_mismatch_rejected_at_construction(shape):
    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem, match=r"jac returned shape"):
        BvpProblem(rhs=_decay_rhs, jac=lambda x, Y: np.zeros(shape),
                   bc=_start_bc([0.0, 0.0]),
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
    p = _decay_problem(11)
    p.initial_guess = np.full((2, 11), np.nan)
    with pytest.raises(NewtonDivergence):
        bvp_solve(p)


def test_newton_iteration_budget(monkeypatch):
    p = _decay_problem(21)
    p.initial_guess = np.vstack([np.full(21, 3.0), np.zeros(21)])
    monkeypatch.setattr(bvp, "_MAX_NEWTON", 1)
    with pytest.raises(NewtonDivergence):
        bvp_solve(p)


def test_singular_jacobian_detected():
    # y' = a(x) y with a = 6/h at the nodes of a uniform mesh and 0 between
    # them: each block's diagonal 1/h - a/6 vanishes
    mesh = np.linspace(0.0, 1.0, 5)

    def coeff(x):
        return np.where(np.isin(x, mesh), 24.0, 0.0)

    p = BvpProblem(rhs=lambda x, Y: coeff(x) * Y,
                   jac=lambda x, Y: coeff(x)[:, None, None],
                   bc=_start_bc([1.0]), initial_mesh=mesh,
                   initial_guess=np.zeros((1, 5)))
    with pytest.raises(SingularJacobian, match="zero pivot in column 0 of interval 0"):
        bvp_solve(p)


def test_mesh_limit_exceeded(monkeypatch):
    monkeypatch.setattr(bvp, "_MAX_NODES", 10)
    with pytest.raises(MeshLimitExceeded):
        bvp_solve(_decay_problem(5, tol=1e-12))


def test_newton_counts_reported():
    sol = bvp_solve(_decay_problem(11))
    assert sol.newton_iters == sum(sol.newton_per_sweep)
    assert len(sol.newton_per_sweep) == sol.mesh_iterations
