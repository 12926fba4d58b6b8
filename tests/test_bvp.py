import re

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


def _constant(*values):
    """The guess that takes the state ``values`` at every abscissa."""
    return lambda x: np.repeat(np.array(values, dtype=float)[:, None], x.size, axis=1)


def _decay_problem(n, tol=1e-8, guess=_constant(1.0, 0.0), jac=_decay_jac):
    mesh = np.linspace(0.0, 1.0, n)
    return BvpProblem(rhs=_decay_rhs, jac=jac, y0=([1.0, 0.0]),
                      initial_mesh=mesh, initial_guess=guess, tol=tol)


def _dense_newton_matrix(h, hJ):
    """The full Newton matrix the block solve condenses, node and stage unknowns.

    Rows are the densities phi[r, k, i] raveled, then the m conditions
    y_0 - y0, whose derivative is the identity;
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
    J[3 * m * nint:, :width * m:width] = np.eye(m)
    return J


def _dense_blocks(blocks):
    """``(h, hJ)`` of the assembly ``(h, diag, couplings)``, all m x m blocks.

    hJ[r, c, j, i] is h_i times d rhs_r / d y_c at point j of interval i;
    the couplings the assembly leaves out are zero.
    """
    h, diag, couplings = blocks
    m, _, nint = diag.shape
    hJ = np.zeros((m, m, 4, nint))
    hJ[np.arange(m), np.arange(m)] = diag
    for r, pairs in enumerate(couplings):
        for c, block in pairs:
            hJ[r, c] = block
    return h, hJ


def _packed(h, hJ):
    """The assembly ``(h, diag, couplings)`` of lower-triangular blocks hJ."""
    m = hJ.shape[0]
    return h, hJ[np.arange(m), np.arange(m)], [
        [(c, hJ[r, c]) for c in range(r) if hJ[r, c].any()] for r in range(m)
    ]


def _dense_step(blocks, R):
    m = blocks[1].shape[0]
    return np.linalg.solve(_dense_newton_matrix(*_dense_blocks(blocks)), -R).reshape(m, -1)


def _coupled_state(sys, n):
    """The coupled system's initial guess sampled on an n-node uniform mesh."""
    x = np.linspace(0.0, 1.0, n)
    return x, initial_guess(sys)(bvp._collocation_points(x))


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
    h = np.diff(x)
    dense = _dense_newton_matrix(*_dense_blocks(bvp._assemble_jacobian(p.jac(xz, Z), h)))
    fd = np.empty_like(dense)
    step = 1e-6
    for q in range(Z.size):
        dZ = np.zeros(Z.size)
        dZ[q] = step
        hi, _ = bvp._full_residual(p.rhs, p.y0, h, xz, Z + dZ.reshape(Z.shape))
        lo, _ = bvp._full_residual(p.rhs, p.y0, h, xz, Z - dZ.reshape(Z.shape))
        fd[:, q] = (hi - lo) / (2.0 * step)
    assert np.max(np.abs(fd - dense)) <= 1e-7 * np.max(np.abs(dense))


def test_block_step_matches_dense_solve_on_coupled_system(exact_cfg, quad_flux,
                                                          exact_freq):
    sys = FoldedSystem(cfg=exact_cfg, flux=quad_flux, freq=exact_freq, L=20.0)
    x, Z = _coupled_state(sys, 101)
    xz = bvp._collocation_points(x)
    R, _ = bvp._full_residual(sys.rhs, sys.y0, np.diff(x), xz, Z)
    blocks = bvp._assemble_jacobian(sys.jac(xz, Z), np.diff(x))
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
    xz = bvp._collocation_points(x)
    h, hJ = _dense_blocks(bvp._assemble_jacobian(sys.jac(xz, Z), np.diff(x)))
    S = Z[:, n:].reshape(4, 2, n - 1)
    stages = bvp.stage_abscissae(x)
    for j, (xp, Yp) in enumerate([(x[:-1], Z[:, :n - 1]), (stages[0], S[:, 0]),
                                  (stages[1], S[:, 1]), (x[1:], Z[:, 1:n])]):
        ref = sys.jac(xp, Yp).transpose(1, 2, 0) * np.diff(x)
        assert np.array_equal(hJ[:, :, j], ref)
    assert np.array_equal(h, np.diff(x))


def _random_lower_blocks(rng, m, nint):
    """Random lower-triangular hJ whose diagonal contracts.

    Diagonal entries h J^rr in [-2, 0] make every scalar map M_i a
    contraction (for equal entries M_i is the (3, 3) Pade approximant of
    exp(h J^rr)), which keeps the march and the dense solve well conditioned.
    About half of the component pairs do not couple at all, so each
    component reads a varying set of the components c < r.
    """
    couples = rng.uniform(size=(m, m)) < 0.5
    hJ = np.tril(rng.uniform(-1.0, 1.0, (4, nint, m, m)) * couples)
    hJ = hJ.transpose(2, 3, 0, 1)
    diag = np.arange(m)
    hJ[diag, diag] = rng.uniform(-2.0, 0.0, (m, 4, nint))
    h = rng.uniform(0.5, 1.0, nint)
    return h, hJ


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 4), nint=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_block_step_matches_dense_solve_on_random_lower_blocks(m, nint, seed):
    rng = np.random.default_rng(seed)
    blocks = _packed(*_random_lower_blocks(rng, m, nint))
    R = rng.standard_normal(3 * m * nint + m)
    step = bvp._block_solve(blocks, R)
    ref = _dense_step(blocks, R)
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


def _random_shared_diagonal_blocks(rng, m, nint):
    """:func:`_random_lower_blocks` whose diagonals come from a pool of two."""
    h, hJ = _random_lower_blocks(rng, m, nint)
    pool = rng.uniform(-2.0, 0.0, (2, 4, nint))
    diag = np.arange(m)
    hJ[diag, diag] = pool[rng.integers(0, 2, m)]
    return h, hJ


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 4), nint=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_block_step_matches_dense_solve_with_shared_diagonals(m, nint, seed):
    # components with equal diagonals share their stage blocks
    rng = np.random.default_rng(seed)
    blocks = _packed(*_random_shared_diagonal_blocks(rng, m, nint))
    R = rng.standard_normal(3 * m * nint + m)
    step = bvp._block_solve(blocks, R)
    ref = _dense_step(blocks, R)
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_jacobians_reuse_the_residual_evaluations(monkeypatch):
    # one Newton iteration evaluates rhs once and jac once, each on the
    # nodes and both stage sets stacked into one array; the boundary rows
    # are the state at x = 0 less y0.  The spy on splu takes the first
    # step's assembly and residual and stops the iteration there.
    p = _decay_problem(11)
    x = p.initial_mesh
    Z = np.concatenate([p.initial_samples[:, :11], np.ones((2, 20))], axis=1) + 0.25
    xz = bvp._collocation_points(x)
    rhs_points, jac_points = [], []

    def rhs(x, Y):
        rhs_points.append((x.copy(), Y.copy()))
        return p.rhs(x, Y)

    def jac(x, Y):
        jac_points.append((x.copy(), Y.copy()))
        return p.jac(x, Y)

    class FirstStep(Exception):
        pass

    steps = []

    def splu(blocks, R):
        steps.append((blocks, R))
        raise FirstStep

    monkeypatch.setattr(bvp, "splu", splu)
    with pytest.raises(FirstStep):
        bvp._newton(rhs, jac, p.y0, np.diff(x), xz, Z)
    [(blocks, R)] = steps
    assert np.array_equal(R[-2:], Z[:, 0] - p.y0)
    h, hJ = _dense_blocks(blocks)
    assert len(rhs_points) == len(jac_points) == 1
    for xs, Ys in (rhs_points[0], jac_points[0]):
        assert np.array_equal(xs, xz) and np.array_equal(Ys, Z)
    assert np.array_equal(xz[11:], bvp.stage_abscissae(x).ravel())
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
    h, hJ = _random_lower_blocks(rng, m, nint)
    hJ[2, 2, 1:, 7] = (0.0, 0.0, 12.0)
    R = rng.standard_normal(3 * m * nint + m)
    with pytest.raises(SingularJacobian,
                       match="collocation block: .*column 2 of interval 7"):
        bvp._block_solve(_packed(h, hJ), R)


@pytest.mark.parametrize("singular, regular", [((1, 3), ()), ((2, 3), (0, 1))])
def test_zero_pivot_of_a_shared_diagonal_names_its_first_component(singular, regular):
    # the components ``singular`` share the singular block of interval 7, and
    # the components ``regular`` a regular diagonal: the error names the
    # first of ``singular``, not the index of its shared block
    rng = np.random.default_rng(6)
    m, nint = 4, 20
    h, hJ = _random_lower_blocks(rng, m, nint)
    r = singular[0]
    hJ[r, r, 1:, 7] = (0.0, 0.0, 12.0)
    for group in (singular, regular):
        for c in group[1:]:
            hJ[c, c] = hJ[group[0], group[0]]
    R = rng.standard_normal(3 * m * nint + m)
    with pytest.raises(SingularJacobian,
                       match=f"collocation block: .*column {r} of interval 7"):
        bvp._block_solve(_packed(h, hJ), R)


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
    p = BvpProblem(rhs=rhs, jac=jac, y0=([1.0]), initial_mesh=mesh,
                   initial_guess=_constant(0.0))
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


@pytest.mark.parametrize("y0", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]], 1.0])
def test_y0_shape_mismatch_rejected_at_construction(y0):
    # m is the length of y0: a y0 that is no vector is refused, and a vector
    # of the wrong length leaves the two-row guess with the wrong shape
    mesh = np.linspace(0.0, 1.0, 5)
    if np.ndim(y0) == 1:
        match = rf"initial_guess returned shape \(2, 13\) .* expected \({len(y0)}, 13\)"
    else:
        match = rf"y0 has shape {re.escape(str(np.shape(y0)))}; expected \(m,\)"
    with pytest.raises(BadProblem, match=match):
        BvpProblem(rhs=_decay_rhs, jac=_decay_jac, y0=y0,
                   initial_mesh=mesh, initial_guess=_constant(1.0, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_y0_rejected_at_construction(bad):
    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem, match=r"y0 must be finite"):
        BvpProblem(rhs=_decay_rhs, jac=_decay_jac, y0=[1.0, bad],
                   initial_mesh=mesh, initial_guess=_constant(1.0, 1.0))


def test_upper_triangular_jac_entry_rejected_at_construction():
    # y'' = -y couples y_0' to y_1: d rhs_0 / d y_1 = 1 above the diagonal
    rhs, jac = _linear([[0.0, 1.0], [-1.0, 0.0]])
    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem, match=r"jac must be lower triangular"):
        BvpProblem(rhs=rhs, jac=jac, y0=([0.0, 1.0]),
                   initial_mesh=mesh, initial_guess=_constant(0.0, 0.0))


@pytest.mark.parametrize("shape", [(1, 2), (2, 2, 1), (1, 2, 3), (1, 1, 1)])
def test_jac_shape_mismatch_rejected_at_construction(shape):
    mesh = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BadProblem, match=r"jac returned shape"):
        BvpProblem(rhs=_decay_rhs, jac=lambda x, Y: np.zeros(shape),
                   y0=([0.0, 0.0]),
                   initial_mesh=mesh, initial_guess=_constant(0.0, 0.0))


def test_mesh_validation():
    rhs, jac = _linear([[1.0]])
    bad = np.array([0.0, 0.5, 0.4, 1.0])
    with pytest.raises(BadProblem):
        BvpProblem(rhs=rhs, jac=jac, y0=[0.0],
                   initial_mesh=bad, initial_guess=_constant(0.0))
    with pytest.raises(BadProblem):
        BvpProblem(rhs=rhs, jac=jac, y0=[0.0],
                   initial_mesh=np.linspace(0.1, 1.0, 4),
                   initial_guess=_constant(0.0))
    with pytest.raises(BadProblem, match="strictly increasing"):
        BvpProblem(rhs=rhs, jac=jac, y0=[0.0], initial_mesh=[0.0, np.nan, 1.0],
                   initial_guess=_constant(0.0))


@pytest.mark.parametrize("changes, match", [
    ({"y0": "abc"}, r"y0 is not an array of numbers"),
    ({"initial_mesh": [0.0, [0.5, 0.6], 1.0]}, r"initial_mesh is not an array of numbers"),
    ({"initial_guess": lambda x: [list(x), [0.0]]}, r"initial_guess is not an array"),
    ({"initial_guess": lambda x: [["a"] * x.size] * 2}, r"initial_guess is not an array"),
    ({"initial_guess": _constant(1.0)}, r"initial_guess returned shape \(1, 13\)"),
    ({"initial_guess": lambda x: np.ones((2, x.size - 1))}, r"returned shape \(2, 12\)"),
    ({"initial_guess": lambda x: np.ones(x.size)}, r"returned shape \(13,\)"),
    ({"initial_guess": _constant(1.0, np.nan)}, r"initial_guess must be finite"),
    ({"initial_guess": _constant(np.inf, 0.0)}, r"initial_guess must be finite"),
])
def test_bad_values_rejected_at_construction(changes, match):
    # a ragged or non-numeric value must not escape as numpy's ValueError
    args = dict(rhs=_decay_rhs, jac=_decay_jac, y0=[1.0, 0.0],
                initial_mesh=np.linspace(0.0, 1.0, 5), initial_guess=_constant(1.0, 0.0))
    with pytest.raises(BadProblem, match=match):
        BvpProblem(**(args | changes))


def test_guess_is_read_once_at_the_nodes_and_stages():
    calls = []

    def guess(x):
        calls.append(x.copy())
        return _decay_exact(x)

    p = _decay_problem(6, guess=guess)
    assert len(calls) == 1
    assert np.array_equal(calls[0], bvp._collocation_points(p.initial_mesh))
    assert np.array_equal(p.initial_samples, _decay_exact(calls[0]))


def test_newton_divergence_on_bad_guess():
    # finite, but its square overflows: the residual is not finite
    p = _decay_problem(11, guess=_constant(1e200, 0.0))
    with np.errstate(all="ignore"), pytest.raises(
            NewtonDivergence, match="not finite at the initial guess"):
        bvp_solve(p)


def test_non_finite_residual_estimate_is_a_solver_error():
    # y' = -y with an rhs that is finite at the nodes and stages of the mesh
    # and NaN between them, where the residual estimate samples it
    mesh = np.linspace(0.0, 1.0, 11)
    points = bvp._collocation_points(mesh)
    p = BvpProblem(rhs=lambda x, Y: np.where(np.isin(x, points), -Y, np.nan),
                   jac=lambda x, Y: np.full((x.size, 1, 1), -1.0), y0=[1.0],
                   initial_mesh=mesh, initial_guess=lambda x: np.exp(-x)[None])
    with pytest.raises(NewtonDivergence, match="residual estimate nan is not finite"):
        bvp_solve(p)


def test_newton_iteration_budget(monkeypatch):
    p = _decay_problem(21, guess=_constant(3.0, 0.0))
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
                   y0=([1.0]), initial_mesh=mesh,
                   initial_guess=_constant(0.0))
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


@pytest.mark.parametrize("n, guess", [(21, _decay_exact), (11, _constant(1.0, 0.0))])
def test_first_newton_step_reuses_the_guess_jacobian(monkeypatch, n, guess):
    # jac runs once for the problem's check, once per Newton assembly after
    # the first, and once per extension; the first assembly reads the check's
    # evaluation at the initial samples
    calls, assemblies = [], []

    def jac(x, Y):
        calls.append(x.size)
        return _decay_jac(x, Y)

    def splu(blocks, R):
        assemblies.append(blocks)
        return bvp._block_solve(blocks, R)

    p = _decay_problem(n, guess=guess, jac=jac)
    monkeypatch.setattr(bvp, "splu", splu)
    sol = bvp_solve(p)
    assert len(assemblies) == sol.newton_iters >= 1
    assert len(calls) == 1 + (len(assemblies) - 1) + sol.mesh_iterations
    x = p.initial_mesh
    fresh = bvp._assemble_jacobian(_decay_jac(bvp._collocation_points(x), p.initial_samples),
                                   np.diff(x))
    assert [[c for c, _ in pairs] for pairs in assemblies[0][2]] == [[], [0]]
    for got, ref in zip(_dense_blocks(assemblies[0]), _dense_blocks(fresh)):
        assert np.array_equal(got, ref)


def test_small_last_step_keeps_its_count():
    assert bvp_solve(_decay_problem(21, guess=_decay_exact)).newton_per_sweep == [1]
    # the coarse first sweep fails the estimate; the fine one starts close
    assert bvp_solve(_decay_problem(11)).newton_per_sweep == [4, 1]


def _unit_decay_problem(guess):
    """y' = -y, y(0) = 1 on the uniform 11-node mesh."""
    rhs, jac = _linear([[-1.0]])
    return BvpProblem(rhs=rhs, jac=jac, y0=[1.0], initial_mesh=np.linspace(0.0, 1.0, 11),
                      initial_guess=guess)


def _scaled_steps(monkeypatch, factor):
    """Patch the Newton linear solve to return ``factor`` times its step."""
    steps = []

    def splu(blocks, R):
        steps.append(factor * bvp._block_solve(blocks, R))
        return steps[-1]

    monkeypatch.setattr(bvp, "splu", splu)
    return steps


def test_an_overlong_step_is_halved_until_it_reduces_the_residual(monkeypatch):
    # the residual is affine in Z: ten times the step leaves -9 R, and the
    # fourth trial, 1.25 times the step, leaves -R/4
    steps = _scaled_steps(monkeypatch, 10.0)
    sol = bvp_solve(_unit_decay_problem(_constant(0.0)))
    assert np.max(np.abs(sol.y[0] - np.exp(-sol.mesh))) <= 1e-9
    assert len(steps) == sol.newton_iters > 10


def test_full_steps_that_do_not_reduce_the_residual_diverge(monkeypatch):
    steps = _scaled_steps(monkeypatch, 10.0)
    monkeypatch.setattr(bvp, "_MAX_BACKTRACKS", 0)
    with pytest.raises(NewtonDivergence, match=r"^no residual decrease after 0 step "
                       r"halvings: \|R\| = 1\.000e\+00, 9\.000e\+00 at the shortest step$"):
        bvp_solve(_unit_decay_problem(_constant(0.0)))
    assert len(steps) == 1


def test_a_step_at_rounding_level_ends_the_iteration(monkeypatch):
    # from y = 0 the residual is 1, far above the convergence test, and a
    # step 1e-20 times the Newton step leaves it there; the step is taken,
    # not halved until the iteration is refused
    steps = _scaled_steps(monkeypatch, 1e-20)
    p = _unit_decay_problem(_constant(0.0))
    x = p.initial_mesh
    Z, F, iters = bvp._newton(p.rhs, p.jac, p.y0, np.diff(x), bvp._collocation_points(x),
                              p.initial_samples)
    assert iters == len(steps) == 1
    assert np.array_equal(Z, p.initial_samples + steps[0])
