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


def _dense_newton_matrix(h, hJ, Ba):
    """The full Newton matrix the block solve condenses, node and stage unknowns.

    Rows are the densities phi[r, k, i] raveled, then the m conditions;
    columns are the state Z[c, p] raveled, with the n nodes first and then
    the first and the second stage of every interval.  Equation k of
    interval i reads (s_k - y_i) / h_i - sum_j A[k, j] f(z_j), so its
    derivative is +-1/h_i on s_k and y_i of its own component and
    -A[k, j] J(z_j) on every point j of the interval.
    """
    m, _, _, nint = hJ.shape
    n = nint + 1
    width = n + 2 * nint
    J = np.zeros((3 * m * nint + m, m * width))
    for i in range(nint):
        points = (i, n + i, n + nint + i, i + 1)
        for r in range(m):
            for k in range(3):
                row = (3 * r + k) * nint + i
                J[row, r * width + points[k + 1]] += 1.0 / h[i]
                J[row, r * width + points[0]] -= 1.0 / h[i]
                for j, p in enumerate(points):
                    cols = p + width * np.arange(m)
                    J[row, cols] -= bvp._A[k, j] * hJ[r, :, j, i] / h[i]
    J[3 * m * nint:, :width * m:width] = Ba
    return J


def _dense_step(blocks, R):
    m = blocks[2].shape[0]
    return np.linalg.solve(_dense_newton_matrix(*blocks), -R).reshape(m, -1)


def _coupled_state(sys, n):
    """The coupled system's initial guess sampled on an n-node uniform mesh."""
    mesh, Y0 = initial_guess(sys)
    interp = bvp._extension(sys.jac, mesh, Y0, sys.rhs(mesh, Y0))
    x = np.linspace(0.0, 1.0, n)
    return x, interp(bvp._collocation_points(x))


def test_lobatto_coefficients():
    # the stage points and the simplifying conditions C(4) of Lobatto IIIA:
    # sum_j A[k, j] c_j**(q-1) = c_k**q / q for q = 1..4, which make the
    # scheme exact for quartic solutions at every stage
    c = np.concatenate([[0.0], bvp._STAGE_C, [1.0]])
    assert np.allclose(c[1:3], [0.5 - np.sqrt(5.0) / 10.0, 0.5 + np.sqrt(5.0) / 10.0],
                       rtol=0.0, atol=1e-16)
    for q in range(1, 5):
        assert np.allclose(bvp._A @ c ** (q - 1), c[1:] ** q / q, rtol=0.0,
                           atol=4e-16)
    # the last row is the Lobatto quadrature, exact to degree 5
    assert np.allclose(bvp._A[2] @ c ** 5, 1.0 / 6.0, rtol=0.0, atol=4e-16)


def test_dense_reference_is_the_residual_jacobian():
    # central differences of the residual confirm the matrix the block solve
    # is checked against
    p = _decay_problem(6)
    x = p.initial_mesh
    rng = np.random.default_rng(4)
    Z = 1.0 + 0.3 * rng.standard_normal((2, 6 + 2 * 5))
    xz = bvp._collocation_points(x)
    dense = _dense_newton_matrix(*bvp._assemble_jacobian(p.jac, p.bc, x, xz, Z))
    fd = np.empty_like(dense)
    step = 1e-6
    for q in range(Z.size):
        dZ = np.zeros(Z.size)
        dZ[q] = step
        hi, _ = bvp._full_residual(p.rhs, p.bc, x, xz, Z + dZ.reshape(Z.shape))
        lo, _ = bvp._full_residual(p.rhs, p.bc, x, xz, Z - dZ.reshape(Z.shape))
        fd[:, q] = (hi - lo) / (2.0 * step)
    assert np.max(np.abs(fd - dense)) <= 1e-7 * np.max(np.abs(dense))


def test_block_step_matches_dense_solve_on_coupled_system(exact_cfg, quad_flux,
                                                          exact_freq):
    sys = FoldedSystem(cfg=exact_cfg, flux=quad_flux, freq=exact_freq, L=20.0)
    x, Z = _coupled_state(sys, 101)
    xz = bvp._collocation_points(x)
    R, _ = bvp._full_residual(sys.rhs, sys.bc, x, xz, Z)
    blocks = bvp._assemble_jacobian(sys.jac, sys.bc, x, xz, Z)
    ref = _dense_step(blocks, R)
    step = bvp._block_solve(blocks, R)
    assert step.shape == Z.shape
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_blocks_match_the_matrix_formula(exact_cfg, quad_flux, exact_freq):
    # hJ[:, :, j, i] is h_i times the rhs Jacobian at point j of interval i:
    # y_i, the two stages, y_{i+1}
    sys = FoldedSystem(cfg=exact_cfg, flux=quad_flux, freq=exact_freq, L=20.0)
    x, Z = _coupled_state(sys, 101)
    n = x.size
    h, hJ, Ba = bvp._assemble_jacobian(sys.jac, sys.bc, x,
                                       bvp._collocation_points(x), Z)
    S = Z[:, n:].reshape(4, 2, n - 1)
    stages = bvp.stage_abscissae(x)
    for j, (xp, Yp) in enumerate([(x[:-1], Z[:, :n - 1]), (stages[0], S[:, 0]),
                                  (stages[1], S[:, 1]), (x[1:], Z[:, 1:n])]):
        ref = sys.jac(xp, Yp).transpose(1, 2, 0) * np.diff(x)
        assert np.array_equal(hJ[:, :, j], ref)
    assert np.array_equal(h, np.diff(x)) and np.array_equal(Ba, sys.bc[0])


def _random_lower_blocks(rng, m, nint):
    """Random lower-triangular hJ whose diagonal contracts, with a full Ba.

    Diagonal entries h J^rr in [-2, 0] make every scalar map M_i a
    contraction (for equal entries M_i is the (3, 3) Pade approximant of
    exp(h J^rr)), which keeps the march and the dense solve well conditioned.
    About half of the component pairs do not couple at all, so components
    that read no unsolved one are marched together in varying patterns.
    """
    couples = rng.uniform(size=(m, m)) < 0.5
    hJ = np.tril(rng.uniform(-1.0, 1.0, (4, nint, m, m)) * couples)
    hJ = hJ.transpose(2, 3, 0, 1)
    diag = np.arange(m)
    hJ[diag, diag] = rng.uniform(-2.0, 0.0, (m, 4, nint))
    h = rng.uniform(0.5, 1.0, nint)
    Ba = rng.uniform(-1.0, 1.0, (m, m)) + m * np.eye(m)
    return h, hJ, Ba


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 4), nint=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_block_step_matches_dense_solve_on_random_lower_blocks(m, nint, seed):
    rng = np.random.default_rng(seed)
    blocks = _random_lower_blocks(rng, m, nint)
    R = rng.standard_normal(3 * m * nint + m)
    step = bvp._block_solve(blocks, R)
    ref = _dense_step(blocks, R)
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_jacobians_reuse_the_residual_evaluations():
    # one Newton iteration evaluates rhs once and jac once, each on the
    # nodes and both stage sets stacked into one array; the boundary rows
    # are the problem's own affine matrix
    p = _decay_problem(11)
    x = p.initial_mesh
    Z = np.concatenate([p.initial_guess, np.ones((2, 20))], axis=1) + 0.25
    xz = bvp._collocation_points(x)
    rhs_points, jac_points = [], []

    def rhs(x, Y):
        rhs_points.append((x.copy(), Y.copy()))
        return p.rhs(x, Y)

    def jac(x, Y):
        jac_points.append((x.copy(), Y.copy()))
        return p.jac(x, Y)

    R, F = bvp._full_residual(rhs, p.bc, x, xz, Z)
    Ba, Bb, g = p.bc
    assert np.array_equal(R[-2:], Ba @ Z[:, 0] - g)
    h, hJ, dga = bvp._assemble_jacobian(jac, p.bc, x, xz, Z)
    assert len(rhs_points) == len(jac_points) == 1
    for xs, Ys in (rhs_points[0], jac_points[0]):
        assert np.array_equal(xs, xz) and np.array_equal(Ys, Z)
    assert np.array_equal(xz[11:], bvp.stage_abscissae(x).ravel())
    assert dga is Ba
    assert hJ.shape == (2, 2, 4, 10)
    assert not np.any(hJ[0, 1])


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
    # with h J^rr = 0 at both stages and 12 at y_{i+1}, the last row of the
    # 3 x 3 stage block, (-5/12 * 0, -5/12 * 0, 1 - 12/12), vanishes
    rng = np.random.default_rng(5)
    m, nint = 4, 20
    h, hJ, Ba = _random_lower_blocks(rng, m, nint)
    hJ[2, 2, 1:, 7] = (0.0, 0.0, 12.0)
    R = rng.standard_normal(3 * m * nint + m)
    with pytest.raises(SingularJacobian,
                       match="collocation block: .*column 2 of interval 7"):
        bvp._block_solve((h, hJ, Ba), R)


def test_quintic_extension_reproduces_quintics():
    # Hermite data of a quintic on a random mesh give back the quintic, its
    # slope and its nodes, x = 1 included, whatever the mesh
    rng = np.random.default_rng(8)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 9)), [1.0]])
    coef = rng.standard_normal((2, 6))
    poly = [np.polynomial.Polynomial(c) for c in coef]

    def sample(ps, xs):
        return np.vstack([p(xs) for p in ps])

    interp = bvp.HermiteInterpolant(
        x, sample(poly, x), sample([p.deriv() for p in poly], x),
        sample([p.deriv(2) for p in poly], x),
    )
    xq = rng.uniform(0.0, 1.0, 200)
    assert np.max(np.abs(interp(xq) - sample(poly, xq))) <= 1e-13
    assert np.max(np.abs(interp(xq, rows=slice(1, 2)) - sample(poly[1:], xq))) <= 1e-13
    assert np.array_equal(interp(x), sample(poly, x))
    assert np.array_equal(interp(0.3), interp(np.array([0.3]))[:, 0])
    t = rng.uniform(0.0, 1.0, 3)
    val, slope = interp.interior(t)
    xt = x[:-1] + t[:, None] * np.diff(x)
    for r, p in enumerate(poly):
        assert np.max(np.abs(val[r] - p(xt))) <= 1e-13
        assert np.max(np.abs(slope[r] - p.deriv()(xt))) <= 1e-10


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
    """A random graded mesh on [0, 1] with est = C(x) h**5, C a narrow bump."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 300)), [1.0]])
    h = np.diff(x)
    mid = x[:-1] + 0.5 * h
    C = 1e5 * np.exp(-((mid - 0.37) / 0.05) ** 2) + 1e-6
    return x, C * h**5


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
    # with est = C h**5, C constant on each old interval, the fifth root of
    # the estimate is additive in length: a new interval's predicted
    # estimate is (integral of C**(1/5) over it)**5
    tol = 1e-8
    x, est = _graded_mesh_and_estimate(seed, tol)
    new = bvp._refine_mesh(x, est, tol, float(np.max(np.diff(x))))
    root = np.interp(new, x, np.concatenate([[0.0], np.cumsum(est ** 0.2)]))
    predicted = np.diff(root) ** 5
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


def _decay_ladder():
    """Nodal errors and residual estimates on uniform meshes of 5..16 nodes.

    Refinement is disabled (loose tol) so the mesh sets the error; the
    errors stay above 1e-12, clear of rounding.
    """
    sizes = np.arange(5, 17)
    errs, ests = [], []
    for n in sizes:
        sol = bvp_solve(_decay_problem(n, tol=10.0))
        errs.append(np.max(np.abs(sol.y - _decay_exact(sol.mesh))))
        ests.append(bvp._estimate_residuals(_decay_rhs, sol.interpolant).max())
    return np.log(1.0 / (sizes - 1)), np.log(errs), np.log(ests)


def test_convergence_order_sixth():
    log_h, log_err, _ = _decay_ladder()
    assert np.polyfit(log_h, log_err, 1)[0] >= 5.8


def test_residual_estimate_order():
    # the quintic's residual scales as h**5; on this ladder it is still
    # approaching that slope from below
    log_h, _, log_est = _decay_ladder()
    assert 4.5 <= np.polyfit(log_h, log_est, 1)[0] <= 5.2


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
    # y' = a(x) y with a = 48 at the nodes of a uniform mesh of width 1/4 and
    # 0 between them: h a = 12 at y_1 and 0 at both stages makes the last row
    # of interval 0's stage block vanish
    mesh = np.linspace(0.0, 1.0, 5)

    def coeff(x):
        return np.where(np.isin(x, mesh), 48.0, 0.0)

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


def _decay_solve(guess):
    mesh = np.linspace(0.0, 1.0, guess.shape[1])
    return bvp_solve(BvpProblem(rhs=_decay_rhs, jac=_decay_jac,
                                bc=_start_bc([1.0, 0.0]), initial_mesh=mesh,
                                initial_guess=guess))


def test_large_last_step_is_settled_by_one_more_step():
    # y1 is linear given y0, so one Newton step from the exact y0 and a y1
    # far off passes the residual test; the 21-node mesh passes the
    # estimate, and the settling step takes the state to where the solve
    # from the exact guess ends (unsettled it stays 3e-15 away)
    mesh = np.linspace(0.0, 1.0, 21)
    exact = _decay_exact(mesh)
    far = _decay_solve(exact + np.vstack([np.zeros(21), 10.0 * (1.0 + mesh)]))
    near = _decay_solve(exact)
    assert far.newton_per_sweep == [2]
    assert near.newton_per_sweep == [1]
    assert np.array_equal(far.mesh, near.mesh)
    assert np.max(np.abs(far.y - near.y)) <= np.finfo(float).eps
    assert np.max(np.abs(far.stages - near.stages)) <= np.finfo(float).eps


def test_small_last_step_keeps_its_count(monkeypatch):
    def no_settle(*args):
        raise AssertionError("a solve from a close guess took the settling step")

    monkeypatch.setattr(bvp, "_settle", no_settle)
    assert _decay_solve(_decay_exact(np.linspace(0.0, 1.0, 21))).newton_per_sweep == [1]
    # the coarse first sweep fails the estimate; the fine one starts close
    assert bvp_solve(_decay_problem(11)).newton_per_sweep == [4, 1]
