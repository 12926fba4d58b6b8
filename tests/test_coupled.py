import numpy as np
import pytest

from shockbeta.beta import compute_beta
from shockbeta.coupled import (
    _GRADED_NODES,
    _GUESS_NODES,
    CoupledResult,
    FoldedSystem,
    continuation_scan,
    first_mesh,
    graded_mesh,
    initial_guess,
    solve_coupled,
    tanh_guess,
)
from shockbeta.errors import (
    LaxViolation,
    NewtonDivergence,
    TailNotResolved,
    ValidationError,
)
from shockbeta.integrating_factor import solve_auxiliary_if
from shockbeta.model import (
    NeutralFrequency,
    burgers_flux,
    custom_flux,
    forcing_slope,
    neutral_zero,
    normalize_to_standing,
    quadratic_transverse_flux,
    rankine_hugoniot_speed,
    sine_transverse_flux,
    standing_shock,
)
from shockbeta.numerics import bvp, bvp_solve

from conftest import exact_profile, exact_v


@pytest.fixture(scope="module")
def folded(exact_cfg, quad_flux, exact_freq):
    return FoldedSystem(exact_cfg, quad_flux, exact_freq, 20.0)


class TestFoldedSystem:
    def test_equilibria_annihilate_field(self, folded, exact_cfg):
        for u in (exact_cfg.u_minus, exact_cfg.u_plus):
            F = folded.field(np.array([[u], [0.0]]), out=np.empty((2, 1)))
            assert np.max(np.abs(F)) <= 1e-12

    def test_exact_solution_satisfies_rhs_pointwise(self, folded):
        # substitute the closed-form pair into the folded field
        t = np.linspace(0.0, 1.0, 501)
        L = folded.L
        x = L * t
        u = exact_profile(x)
        v = exact_v(x)
        sech2 = 1.0 / np.cosh(x / 2.0) ** 2
        Yr = np.vstack([u, v])
        Yl = np.vstack([exact_profile(-x), exact_v(-x)])
        rhs = folded.rhs(t, np.vstack([Yr, Yl]))
        du_dt = L * (-0.5 * sech2)
        dv_dt = L * (-sech2 + x * sech2 * np.tanh(x / 2.0))
        assert np.max(np.abs(rhs[0] - du_dt)) <= 1e-12
        assert np.max(np.abs(rhs[1] - dv_dt)) <= 1e-12

    def test_linearization_has_double_eigenvalue(self, folded, exact_cfg, quad_flux,
                                                 exact_freq):
        # complex-step differentiation of the field at the equilibria
        h = 1e-20
        for u in (exact_cfg.u_minus, exact_cfg.u_plus):
            U0 = np.array([u, 0.0], dtype=complex)
            J = np.empty((2, 2))
            for c in range(2):
                Up = U0.copy()
                Up[c] += 1j * h

                ubar, v = Up
                a = ubar - exact_cfg.s  # a1 = u for f1 = u^2/2
                du = quad_flux.f1(ubar) - exact_cfg.s * ubar - (
                    quad_flux.f1(exact_cfg.u_minus)
                    - exact_cfg.s * exact_cfg.u_minus
                )
                dv = a * v + exact_freq.tau0 * (ubar - exact_cfg.u_minus) \
                    + exact_freq.xi0 * (quad_flux.f2(ubar)
                                        - quad_flux.f2(exact_cfg.u_minus))
                J[:, c] = np.imag(np.array([du, dv])) / h
            eigs = np.sort(np.linalg.eigvals(J).real)
            expected = exact_cfg.a1_shifted(u)
            assert np.max(np.abs(eigs - expected)) <= 1e-10

    @pytest.mark.parametrize("flux", [
        quadratic_transverse_flux(),
        sine_transverse_flux(),
        custom_flux([0.0, 0.0, 0.5, 0.1], [0.0, 0.0, 1.0]),
    ], ids=["quadratic", "sine", "custom_cubic"])
    def test_jac_matches_central_differences(self, flux):
        cfg = normalize_to_standing(
            flux, 1.2, -1.0, rankine_hugoniot_speed(flux, 1.2, -1.0)
        )
        sys = FoldedSystem(cfg, flux, neutral_zero(cfg, flux, 1.3), 20.0)
        # both halves at independent states, v far from 0
        rng = np.random.default_rng(1)
        n = 60
        t = np.linspace(0.0, 1.0, n)
        Y = np.vstack([rng.uniform(-1.0, 1.2, n), rng.uniform(0.5, 2.0, n),
                       rng.uniform(-1.0, 1.2, n), rng.uniform(-2.0, -0.5, n)])
        J = sys.jac(t, Y)
        assert J.shape == (n, 4, 4)
        h = 1e-6
        fd = np.empty_like(J)
        for c in range(4):
            step = np.zeros((4, 1))
            step[c] = h
            fd[:, :, c] = ((sys.rhs(t, Y + step) - sys.rhs(t, Y - step)) / (2 * h)).T
        assert np.max(np.abs(J - fd)) <= 1e-7 * (1.0 + np.max(np.abs(J)))
        # the halves do not couple, and u' does not depend on v
        zero = np.ones((4, 4), dtype=bool)
        zero[[0, 1, 1, 2, 3, 3], [0, 0, 1, 2, 2, 3]] = False
        assert np.all(J[:, zero] == 0.0)

    @pytest.mark.parametrize("flux", [
        quadratic_transverse_flux(),
        sine_transverse_flux(),
        custom_flux([0.0, 0.0, 0.5, 0.1], [0.0, 0.0, 1.0]),
    ], ids=["quadratic", "sine", "custom_cubic"])
    def test_one_pass_equals_per_half_formulas(self, flux):
        # rhs and jac evaluate both halves at once; each half must come out
        # bit-equal to its own formula, L times the field on the right and
        # -L times it on the left
        cfg = normalize_to_standing(
            flux, 1.2, -1.0, rankine_hugoniot_speed(flux, 1.2, -1.0)
        )
        freq = neutral_zero(cfg, flux, 1.3)
        sys = FoldedSystem(cfg, flux, freq, 20.0)
        rng = np.random.default_rng(4)
        n = 57
        t = np.linspace(0.0, 1.0, n)
        Y = rng.uniform(-1.5, 1.5, (4, n))
        per_half = np.vstack([sys.L * sys.field(Y[:2], out=np.empty((2, n))),
                              -sys.L * sys.field(Y[2:], out=np.empty((2, n)))])
        assert np.array_equal(sys.rhs(t, Y), per_half)
        for p in (0, n - 1):
            assert np.array_equal(sys.rhs(t[p], Y[:, p]), per_half[:, p])
        J_ref = np.zeros((n, 4, 4))
        for r, sign in ((0, sys.L), (2, -sys.L)):
            ubar, v = Y[r], Y[r + 1]
            a = sign * cfg.a1_shifted(ubar)
            J_ref[:, r, r] = a
            J_ref[:, r + 1, r + 1] = a
            J_ref[:, r + 1, r] = sign * (
                cfg.d2p(ubar) * v + forcing_slope(flux, freq, ubar)
            )
        assert np.array_equal(sys.jac(t, Y), J_ref)

    def test_boundary_conditions_count_and_content(self, folded, exact_cfg):
        # the four fold conditions fix the state at t = 0: the phase
        # ubar_r(0) = u_mid, v_r(0) = 0, and both halves match
        y0 = folded.y0
        assert y0.shape == (4,)
        assert np.array_equal(y0, [exact_cfg.u_mid, 0.0, exact_cfg.u_mid, 0.0])


def _guess_at_nodes(sys):
    """The nodes of the cold starting mesh and the guess of ``sys`` there."""
    mesh = np.linspace(0.0, 1.0, _GUESS_NODES)
    return mesh, initial_guess(sys)(mesh)


class TestInitialGuess:
    def test_guess_quality_and_newton_count(self, folded, coupled_L20):
        mesh, Y = _guess_at_nodes(folded)
        assert np.max(np.abs(Y[:, 0] - folded.y0)) <= 1e-6
        # tail of the guess reaches the attracting state
        assert abs(Y[0, -1] - (-1.0)) <= 1e-6
        # Newton never needs more than a few corrections per sweep
        assert max(coupled_L20.bvp.newton_per_sweep) <= 3

    def test_guess_costs_at_most_one_extra_newton_iteration(self, coupled_L20):
        # the guess is integrated loosely (rtol 1e-3); Newton converges
        # quadratically from it, so the first sweep takes two iterations
        # where the exact guess takes one
        assert coupled_L20.bvp.newton_per_sweep[0] <= 2

    @pytest.mark.parametrize("L", [20.0, 30.0])
    def test_guess_matches_the_closed_form_on_both_halves(
            self, exact_cfg, quad_flux, exact_freq, L):
        # the outward integration is this close to the exact pair (4.7e-5
        # and 5.8e-4 at most, over both L)
        mesh, Y = _guess_at_nodes(FoldedSystem(exact_cfg, quad_flux, exact_freq, L))
        for x, rows in ((L * mesh, slice(0, 2)), (-L * mesh, slice(2, 4))):
            ubar, v = Y[rows]
            assert np.max(np.abs(ubar - exact_profile(x))) <= 1e-4
            assert np.max(np.abs(v - exact_v(x))) <= 1e-3

    @pytest.mark.parametrize("flux, um", [
        (sine_transverse_flux(), 1.0),
        (sine_transverse_flux(), 1.3),
        (quadratic_transverse_flux(), 1.0),
        (burgers_flux(), 2.0),
    ], ids=["sine_1.0", "sine_1.3", "quadratic_transverse", "burgers_2.0"])
    def test_answer_does_not_depend_on_the_guess(self, flux, um):
        # the loose outward guess and the closed-form pair end on the same
        # mesh, at the same pair and beta to rounding
        cfg, freq = standing_shock(flux, um, -1.0, 1.0)
        outward, closed = (solve_coupled(cfg, flux, freq, 20.0, 4000, guess=guess)
                           for guess in (initial_guess, tanh_guess))
        for key in ("mesh_size", "mesh_sweeps"):
            assert outward.aux.diagnostics[key] == closed.aux.diagnostics[key]
        assert np.max(np.abs(outward.profile.ubar - closed.profile.ubar)) <= 1e-13
        assert np.max(np.abs(outward.aux.v - closed.aux.v)) <= 1e-13
        beta_outward, beta_closed = (compute_beta(flux, r.profile, r.aux).beta
                                     for r in (outward, closed))
        assert abs(beta_outward - beta_closed) <= 1e-14 * abs(beta_closed)

    def test_zero_frequency_guess_has_zero_correction(self, exact_cfg, quad_flux):
        sys0 = FoldedSystem(exact_cfg, quad_flux, NeutralFrequency(0.0, 0.0), 20.0)
        _, Y = _guess_at_nodes(sys0)
        assert np.max(np.abs(Y[[1, 3]])) == 0.0


class TestTanhGuess:
    @pytest.mark.parametrize("L", [20.0, 30.0])
    def test_exact_case_guess_is_the_closed_form(self, exact_cfg, quad_flux,
                                                 exact_freq, L):
        # at the starting mesh's nodes and stages, both halves, to rounding
        t = bvp._collocation_points(np.linspace(0.0, 1.0, _GUESS_NODES))
        Y = tanh_guess(FoldedSystem(exact_cfg, quad_flux, exact_freq, L))(t)
        eps = np.finfo(float).eps
        for x, rows in ((L * t, slice(0, 2)), (-L * t, slice(2, 4))):
            ubar, v = Y[rows]
            assert np.all(np.abs(ubar - exact_profile(x)) <= eps)
            assert np.all(np.abs(v - exact_v(x)) <= 4 * eps * (1.0 + np.abs(x)))

    def test_exact_case_solve_takes_one_newton_iteration(
            self, exact_cfg, quad_flux, exact_freq):
        res = solve_coupled(exact_cfg, quad_flux, exact_freq, 20.0, 4000,
                            guess=tanh_guess)
        assert res.bvp.newton_per_sweep == [1]
        assert res.bvp.mesh.size == _GUESS_NODES


class TestFirstMesh:
    @pytest.mark.parametrize("L", [20.0, 60.0])
    @pytest.mark.parametrize("um", [1.0, 1.3, 1.5])
    def test_graded_mesh_crowds_at_the_fold(self, um, L):
        f = sine_transverse_flux()
        cfg, freq = standing_shock(f, um, -1.0, 1.0)
        mesh = graded_mesh(FoldedSystem(cfg, f, freq.per_unit()[1], L))
        h = np.diff(mesh)
        assert mesh.size == _GRADED_NODES
        assert mesh[0] == 0.0 and mesh[-1] == 1.0
        assert np.all(h > 0.0)
        assert h[0] < h[-1]

    @pytest.mark.parametrize("flux, graded", [
        (sine_transverse_flux(), True),
        (custom_flux((0.0, 0.0, 0.5), (0.0, 0.0, 1.0, 0.3)), True),
        (custom_flux((0.0, 0.0, 0.5), (0.0, 0.0, 1.0, 0.0)), False),
        (quadratic_transverse_flux(), False),
        (burgers_flux(), False),
        (custom_flux((0.0, 0.0, 0.5, 0.1), (0.0, 0.0, 1.0, 0.3)), False),
    ])
    def test_graded_only_where_the_pair_is_close_but_inexact(self, flux, graded):
        # a quadratic f1 with an inexact pair starts graded, an exact pair
        # or a cubic f1 on the uniform mesh
        cfg, freq = standing_shock(flux, 1.3, -1.0, 1.0)
        sys = FoldedSystem(cfg, flux, freq.per_unit()[1], 20.0)
        uniform = np.linspace(0.0, 1.0, _GUESS_NODES)
        assert np.array_equal(first_mesh(sys), graded_mesh(sys) if graded else uniform)


class TestSolveCoupled:
    def test_exact_case_two_norm_errors(self, coupled_L20):
        x = coupled_L20.profile.grid.x
        eu = np.sqrt(np.sum((coupled_L20.profile.ubar - exact_profile(x)) ** 2))
        ev = np.sqrt(np.sum((coupled_L20.aux.v - exact_v(x)) ** 2))
        assert eu <= 1e-6
        assert ev <= 5e-6

    def test_folded_state_is_profile_and_v(self, coupled_L20):
        # (ubar, v) per half; v is the whole correction
        assert coupled_L20.bvp.y.shape[0] == 4

    def test_fold_mismatch_tiny(self, coupled_L20):
        assert coupled_L20.aux.diagnostics["fold_mismatch"] <= 1e-10

    def test_residual_norm_under_tolerance(self, coupled_L20):
        assert coupled_L20.bvp.residual_norm <= 1e-8

    def test_a_far_tanh_guess_takes_a_halved_newton_step(self, monkeypatch):
        # f1 = 1.3 u^2 - 0.26 u^4 is concave beyond |u| = 0.913, and this
        # admissible shock's profile is far from the tanh pair: the first
        # sweep halves one Newton step, and full steps alone diverge
        f = custom_flux((0.0, 0.0, 1.3, 0.0, -0.26), (0.0, 0.0, 1.0))
        cfg, freq = standing_shock(f, 1.44, -1.37, 1.0)
        full_residual, calls = bvp._full_residual, []

        def spy(*args):
            calls.append(args)
            return full_residual(*args)

        monkeypatch.setattr(bvp, "_full_residual", spy)
        damped = solve_coupled(cfg, f, freq, 65.0, 4000, guess=tanh_guess)
        assert damped.bvp.newton_per_sweep == [6, 1]
        # one residual per sweep's start and per step, and the halved trial
        assert len(calls) == damped.bvp.mesh_iterations + damped.bvp.newton_iters + 1
        # the outward guess takes full steps to the same solution
        outward = solve_coupled(cfg, f, freq, 65.0, 4000)
        assert np.max(np.abs(damped.aux.v - outward.aux.v)) <= 1e-14
        assert np.max(np.abs(damped.profile.ubar - outward.profile.ubar)) <= 1e-14
        monkeypatch.setattr(bvp, "_MAX_BACKTRACKS", 0)
        with pytest.raises(NewtonDivergence, match=r"no residual decrease after 0 step "
                           r"halvings: \|R\| = 1\.134e\+02, 1\.138e\+02 at the shortest"):
            solve_coupled(cfg, f, freq, 65.0, 4000, guess=tanh_guess)

    def test_zero_frequency_reduces_to_profile(self, exact_cfg, quad_flux,
                                               grid_L20, profile_L20):
        res = solve_coupled(
            exact_cfg, quad_flux, NeutralFrequency(0.0, 0.0), 20.0, 4000
        )
        assert np.array_equal(res.aux.v, np.zeros(4001))
        assert np.max(np.abs(res.profile.ubar - profile_L20.ubar)) <= 1e-8

    def test_unfolded_ode_residual_centered_differences(self, exact_cfg, quad_flux,
                                                        exact_freq):
        # the check grid must be fine enough that the h^2 truncation of the
        # centered difference itself stays below the 1e-6 residual bound
        res = solve_coupled(exact_cfg, quad_flux, exact_freq, 20.0, 40000)
        ps, aux = res.profile, res.aux
        h = ps.grid.h
        u, v = ps.ubar, aux.v
        dv = (v[2:] - v[:-2]) / (2.0 * h)
        rhs = exact_cfg.a1_shifted(u[1:-1]) * v[1:-1] + exact_freq.xi0 * (
            quad_flux.f2(u[1:-1]) - quad_flux.f2(exact_cfg.u_minus)
        )
        assert np.max(np.abs(dv - rhs)) <= 1e-6
        du = (u[2:] - u[:-2]) / (2.0 * h)
        assert np.max(np.abs(du - ps.ubar_prime[1:-1])) <= 1e-6

    def test_method_agreement_with_integrating_factor(self, coupled_L20, exact_cfg,
                                                      quad_flux, exact_freq,
                                                      profile_L20):
        aux_if = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        dv = np.sqrt(np.sum((coupled_L20.aux.v - aux_if.v) ** 2))
        du = np.sqrt(np.sum((coupled_L20.profile.ubar - profile_L20.ubar) ** 2))
        assert dv <= 1e-3
        assert du <= 1e-5

    def test_domain_width_robustness(self, exact_cfg, quad_flux, exact_freq):
        # interior samples barely move as L grows over {10, 20, 30}
        sols = {}
        for L in (10.0, 20.0, 30.0):
            n = int(100 * L)
            sols[L] = solve_coupled(
                exact_cfg, quad_flux, exact_freq, L, n,
                tail_tol=1e-3, decay_tol=1e-2,
            )
        ref = sols[10.0]
        x10 = ref.profile.grid.x
        h = ref.profile.grid.h
        for L in (20.0, 30.0):
            x = sols[L].profile.grid.x
            offset = int(round((x10[0] - x[0]) / h))
            common = offset + np.arange(x10.size)
            assert np.allclose(x[common], x10, atol=1e-9)
            dv = np.max(np.abs(sols[L].aux.v[common] - ref.aux.v))
            assert dv < 1e-6


    @pytest.mark.parametrize("L", [10.0, 20.0, 30.0])
    def test_cold_exact_solve_takes_two_sweeps(self, exact_cfg, quad_flux,
                                               exact_freq, L):
        # the mesh redistributed after the first sweep meets the tolerance
        res = solve_coupled(exact_cfg, quad_flux, exact_freq, L, 4000,
                            tail_tol=1e-3, decay_tol=1e-2)
        assert res.bvp.mesh_iterations <= 2
        assert res.aux.diagnostics["mesh_sweeps"] == res.bvp.mesh_iterations
        assert res.aux.diagnostics["newton_per_sweep"] == res.bvp.newton_per_sweep

    def test_cold_sine_solve_mesh_size(self):
        # sixth-order collocation with an h^5 residual: the graded first mesh
        # of a few hundred nodes meets tol = 1e-8 in one sweep, where the
        # 3-stage scheme needed 3456 nodes
        f = sine_transverse_flux()
        cfg, freq = standing_shock(f, 1.3, -1.0, 1.0)
        res = solve_coupled(cfg, f, freq, 20.0, 4000)
        assert res.bvp.mesh.size == _GRADED_NODES
        assert res.bvp.mesh_iterations == 1

    @pytest.mark.parametrize("case", [
        ("sine", 1.0, 20.0), ("sine", 1.1, 20.0), ("sine", 1.2, 20.0),
        ("sine", 1.3, 20.0), ("sine", 1.4, 20.0), ("sine", 1.5, 20.0),
        ("quadratic_cubic", 1.3, 20.0),
        ("exact", 1.0, 10.0), ("exact", 1.0, 20.0), ("exact", 1.0, 30.0),
    ])
    def test_beta_at_working_tolerance_matches_a_tight_solve(self, case):
        name, um, L = case
        f = {
            "sine": sine_transverse_flux,
            "quadratic_cubic": lambda: custom_flux((0.0, 0.0, 0.5),
                                                   (0.0, 0.0, 1.0, 0.3)),
            "exact": quadratic_transverse_flux,
        }[name]()
        cfg, freq = standing_shock(f, um, -1.0, 1.0)
        betas = [
            compute_beta(f, res.profile, res.aux).beta
            for res in (solve_coupled(cfg, f, freq, L, 4000, tol=tol,
                                      tail_tol=1e-3, decay_tol=1e-2)
                        for tol in (1e-8, 1e-11))
        ]
        assert abs(betas[0] / betas[1] - 1.0) <= 3e-12


class TestContinuation:
    def test_six_point_sine_scan(self, sine_scan):
        assert len(sine_scan) == 6
        for pt in sine_scan[1:]:
            assert pt.bvp.newton_iters <= 10
        for pt in sine_scan:
            assert pt.aux.tail_magnitudes() <= 1e-4
            i0 = pt.aux.grid.origin_index
            assert abs(pt.aux.v[i0]) <= 1e-10

    def test_scan_meshes_do_not_accumulate(self, sine_scan):
        # each scan mesh is sized for its own point, not grown from the last
        f = sine_transverse_flux()
        for pt in sine_scan:
            cold = solve_coupled(pt.config, f, pt.freq, 20.0, 4000)
            assert pt.bvp.mesh.size <= 1.1 * cold.bvp.mesh.size

    @pytest.mark.parametrize("chain", ["sine", "burgers"])
    def test_every_point_equals_its_cold_solve(self, chain, sine_scan,
                                               burgers_scan):
        # each point is solved alone from the tanh guess and ends where the
        # solve from the outward integration ends: same mesh, same sweeps,
        # beta to rounding
        f, L, N, points = {
            "sine": (sine_transverse_flux(), 20.0, 4000, sine_scan),
            "burgers": (burgers_flux(), 20.0, 8000, burgers_scan),
        }[chain]
        for pt in points:
            cold = solve_coupled(pt.config, f, pt.freq, L, N)
            scan_d, cold_d = pt.aux.diagnostics, cold.aux.diagnostics
            assert scan_d["mesh_size"] == cold_d["mesh_size"]
            assert scan_d["mesh_sweeps"] == cold_d["mesh_sweeps"]
            beta_scan = compute_beta(f, pt.profile, pt.aux).beta
            beta_cold = compute_beta(f, cold.profile, cold.aux).beta
            assert abs(beta_scan - beta_cold) <= 1e-14 * abs(beta_cold)

    def test_sine_points_take_no_more_iterations_than_cold_solves(
            self, sine_scan):
        # the tanh guess of the sine flux's f1 = u^2/2 is closer than the
        # loose outward integration: one Newton iteration in the one sweep,
        # where the cold solve takes two
        f = sine_transverse_flux()
        for pt in sine_scan:
            cold = solve_coupled(pt.config, f, pt.freq, 20.0, 4000)
            assert pt.bvp.newton_per_sweep == [1]
            assert len(cold.bvp.newton_per_sweep) == 1
            assert cold.bvp.newton_per_sweep[0] >= pt.bvp.newton_per_sweep[0]

    def test_burgers_points_take_no_more_iterations_than_cold_solves(
            self, burgers_scan):
        # u- = 1, 2, 4, 8: for a quadratic f2 the tanh guess is the exact
        # pair, so no sweep of a point takes more iterations than the same
        # sweep from the loose outward guess
        f = burgers_flux()
        counts = [pt.bvp.newton_per_sweep for pt in burgers_scan]
        assert counts == [[1], [1], [1, 1], [1, 1]]
        for pt, count in zip(burgers_scan, counts):
            cold = solve_coupled(pt.config, f, pt.freq, 20.0, 8000)
            assert len(cold.bvp.newton_per_sweep) == len(count)
            assert all(c >= s for c, s in zip(cold.bvp.newton_per_sweep, count))

    def test_steps_start_on_the_cold_starting_mesh(self, quad_flux, exact_cfg,
                                                   monkeypatch):
        starts = []

        def spy(problem):
            starts.append(problem.initial_mesh.size)
            return bvp_solve(problem)

        monkeypatch.setattr("shockbeta.coupled.bvp_solve", spy)
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0, 1.2, 1.2, 1.4],
                                20.0, 1000)
        # the repeated left state is already solved: no third solve of 1.2
        assert starts == [_GUESS_NODES] * 3
        assert pts[2] is pts[1]

    @pytest.mark.parametrize("first_failure, index", [(1, 0), (2, 1)])
    def test_failed_solve_is_its_points_entry(self, quad_flux, exact_cfg,
                                              monkeypatch, first_failure, index):
        # a point is solved once, never retried, and a failure does not end
        # the scan: every point is attempted, each failure is its entry
        solves = []

        def failing(problem):
            solves.append(problem)
            if len(solves) >= first_failure:
                raise NewtonDivergence("forced failure")
            return bvp_solve(problem)

        monkeypatch.setattr("shockbeta.coupled.bvp_solve", failing)
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0, 1.4, 1.8], 20.0, 1000)
        assert len(solves) == len(pts) == 3
        assert all(isinstance(pt, CoupledResult) for pt in pts[:index])
        assert all(isinstance(pt, NewtonDivergence) for pt in pts[index:])

    def test_singleton_chain_matches_direct_solve(self, quad_flux, exact_cfg,
                                                  exact_freq, coupled_L20):
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0], 20.0, 4000)
        assert len(pts) == 1
        assert np.max(np.abs(pts[0].aux.v - coupled_L20.aux.v)) <= 1e-9

    def test_built_first_shock_is_used_as_given(self, quad_flux, exact_cfg,
                                                exact_freq):
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0], 20.0, 4000,
                                freq0=exact_freq)
        assert pts[0].config is exact_cfg and pts[0].freq is exact_freq
        built = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0], 20.0, 4000)
        assert np.array_equal(pts[0].aux.v, built[0].aux.v)
        with pytest.raises(ValidationError, match="first left state"):
            continuation_scan(exact_cfg, quad_flux, 1.0, [1.2, 1.4], 20.0, 4000,
                              freq0=exact_freq)

    def test_repeated_parameter_needs_no_extra_newton(self, quad_flux, exact_cfg):
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0, 1.0], 20.0, 1000)
        assert pts[1].bvp.newton_iters <= 1

    def test_stall_preserves_prior_points(self, quad_flux, exact_cfg):
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0, -3.0], 20.0, 1000)
        assert len(pts) == 2
        assert isinstance(pts[0], CoupledResult)
        assert isinstance(pts[1], LaxViolation)

    def test_a_failed_point_leaves_the_later_points(self):
        # u- = -0.8 is admissible but its layer is too wide for L = 20; the
        # point after it is solved as it is alone
        f = burgers_flux()
        cfg0 = normalize_to_standing(f, 1.0, -1.0, 0.0)
        pts = continuation_scan(cfg0, f, 1.0, [1.0, -0.8, 1.5], 20.0, 4000)
        alone = continuation_scan(cfg0, f, 1.0, [1.5], 20.0, 4000)[0]
        assert isinstance(pts[0], CoupledResult)
        assert isinstance(pts[1], TailNotResolved)
        assert str(pts[1]) == ("endpoint residuals (2.384e-02, 2.384e-02) "
                               "exceed 1.0e-06 times the jump 2.000e-01; increase L")
        assert np.array_equal(pts[2].aux.v, alone.aux.v)
        assert np.array_equal(pts[2].profile.ubar, alone.profile.ubar)

    def test_inadmissible_first_point_raises_before_any_solve(self, monkeypatch):
        # with no freq0 the first left state is built here: u- = -3 < u+
        # breaks the Lax condition, and the scan raises instead of recording it
        def no_solve(problem):
            raise AssertionError("a point was solved")

        monkeypatch.setattr("shockbeta.coupled.bvp_solve", no_solve)
        f = burgers_flux()
        cfg0 = normalize_to_standing(f, 1.0, -1.0, 0.0)
        with pytest.raises(LaxViolation):
            continuation_scan(cfg0, f, 1.0, [-3.0, 1.0], 20.0, 4000)

    def test_a_repeated_failure_repeats_its_entry(self, quad_flux, exact_cfg,
                                                  monkeypatch):
        solves = []

        def failing(problem):
            solves.append(problem)
            raise NewtonDivergence("forced failure")

        monkeypatch.setattr("shockbeta.coupled.bvp_solve", failing)
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0, 1.0, -3.0, -3.0],
                                20.0, 1000)
        assert len(solves) == 1
        assert pts[1] is pts[0] and isinstance(pts[0], NewtonDivergence)
        assert pts[3] is pts[2] and isinstance(pts[2], LaxViolation)

    def test_a_repeat_after_other_points_reuses_the_first_entry(
            self, quad_flux, exact_cfg, monkeypatch):
        solves = []

        def spy(problem):
            solves.append(problem)
            return bvp_solve(problem)

        monkeypatch.setattr("shockbeta.coupled.bvp_solve", spy)
        pts = continuation_scan(exact_cfg, quad_flux, 1.0,
                                [1.0, 1.2, -3.0, 1.0, -3.0], 20.0, 1000)
        assert len(solves) == 2
        assert pts[3] is pts[0] and isinstance(pts[0], CoupledResult)
        assert pts[4] is pts[2] and isinstance(pts[2], LaxViolation)

    def test_coarse_grid_at_a_later_point_raises_before_any_solve(
            self, quad_flux, exact_cfg, monkeypatch):
        # 4 L max|a1s| = 40 (u- - u+): N = 100 resolves u- = 1 and 1.2, not 3
        def no_solve(*args, **kwargs):
            raise AssertionError("a point was solved before the grid check")

        monkeypatch.setattr("shockbeta.coupled.solve_coupled", no_solve)
        with pytest.raises(ValidationError, match="at u- = 3, .* even N is 160"):
            continuation_scan(exact_cfg, quad_flux, 1.0, [1.0, 1.2, 3.0], 20.0, 100)


@pytest.fixture(scope="module")
def sine_scan():
    f = sine_transverse_flux()
    cfg0 = normalize_to_standing(burgers_flux(), 1.0, -1.0, 0.0)
    return continuation_scan(
        cfg0, f, 1.0, [1.0, 1.1, 1.2, 1.3, 1.4, 1.5], 20.0, 4000
    )


@pytest.fixture(scope="module")
def burgers_scan():
    f = burgers_flux()
    cfg0 = normalize_to_standing(f, 1.0, -1.0, 0.0)
    return continuation_scan(cfg0, f, 1.0, [1.0, 2.0, 4.0, 8.0], 20.0, 8000)
