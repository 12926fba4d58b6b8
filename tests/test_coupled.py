import numpy as np
import pytest

from shockbeta.auxiliary import AuxMethod
from shockbeta.beta import compute_beta
from shockbeta.coupled import (
    _GUESS_NODES,
    FoldedSystem,
    _narrowed_guess,
    continuation_scan,
    initial_guess,
    solve_coupled,
)
from shockbeta.errors import ContinuationStalled, NewtonDivergence, ValidationError
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
from shockbeta.numerics import bvp_solve
from shockbeta.numerics.bvp import stage_abscissae
from shockbeta.profile import Grid, solve_profile

from conftest import exact_profile, exact_v


@pytest.fixture(scope="module")
def folded(exact_cfg, quad_flux, exact_freq):
    return FoldedSystem(exact_cfg, quad_flux, exact_freq, 20.0)


class TestFoldedSystem:
    def test_equilibria_annihilate_field(self, folded, exact_cfg):
        for u in (exact_cfg.u_minus, exact_cfg.u_plus):
            F = folded.field(np.array([[u], [0.0]]))
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
        per_half = np.vstack([sys.L * sys.field(Y[:2]), -sys.L * sys.field(Y[2:])])
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
        Ya = np.array([exact_cfg.u_mid, 0.0, exact_cfg.u_mid, 0.0])
        Yb = np.zeros(4)
        Ba, Bb, g = folded.bc
        assert Ba.shape == Bb.shape == (4, 4) and g.shape == (4,)
        assert not np.any(Bb)  # every condition sits at the fold
        res = Ba @ Ya + Bb @ Yb - g
        assert np.max(np.abs(res)) == 0.0
        # phase, ubar matching, v_r(0) = 0 and v matching, at any state
        Ya, Yb = np.random.default_rng(2).uniform(-2.0, 2.0, (2, 4))
        expected = [Ya[0] - exact_cfg.u_mid, Ya[2] - Ya[0], Ya[1], Ya[3] - Ya[1]]
        assert np.array_equal(Ba @ Ya + Bb @ Yb - g, expected)


class TestInitialGuess:
    def test_guess_quality_and_newton_count(self, folded, coupled_L20):
        mesh, Y = initial_guess(folded)
        Ba, Bb, g = folded.bc
        bc_res = Ba @ Y[:, 0] + Bb @ Y[:, -1] - g
        assert np.max(np.abs(bc_res)) <= 1e-6
        # tail of the guess reaches the attracting state
        assert abs(Y[0, -1] - (-1.0)) <= 1e-6
        # Newton never needs more than a few corrections per sweep
        assert max(coupled_L20.bvp.newton_per_sweep) <= 3

    def test_guess_costs_no_newton_iteration(self, coupled_L20):
        # the guess is integrated only to the starting mesh's own accuracy;
        # Newton still converges on the first sweep in one iteration
        assert coupled_L20.bvp.newton_per_sweep[0] == 1

    def test_zero_frequency_guess_has_zero_correction(self, exact_cfg, quad_flux):
        sys0 = FoldedSystem(exact_cfg, quad_flux, NeutralFrequency(0.0, 0.0), 20.0)
        _, Y = initial_guess(sys0)
        assert np.max(np.abs(Y[[1, 3]])) == 0.0


class TestNarrowedGuess:
    def test_guess_is_the_wider_solution_cut_at_L(self, coupled_L20):
        wide = coupled_L20.bvp
        mesh, Y, S = _narrowed_guess(coupled_L20, 10.0)
        k = mesh.size - 1
        assert mesh[0] == 0.0 and mesh[-1] == 1.0
        assert np.all(np.diff(mesh) > 0.0)
        assert np.array_equal(mesh[:k], wide.mesh[:k] / 0.5)
        assert np.array_equal(Y[:, :k], wide.y[:, :k])
        assert np.array_equal(Y[:, k], wide.interpolant(0.5))
        # the kept intervals keep their converged stages; the cut interval
        # takes its stages from the wider extension
        assert S.shape == (4, 2, k)
        assert np.array_equal(S[:, :, :k - 1], wide.stages[:, :, :k - 1])
        last = stage_abscissae(np.array([wide.mesh[k - 1], 0.5]))[:, 0]
        assert np.array_equal(S[:, :, k - 1], wide.interpolant(last))

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
    def test_node_within_rounding_of_the_cut(self, coupled_L20, exact_cfg,
                                             quad_flux, exact_freq, offset):
        # L a few ulps either side of a mesh node: the cut never duplicates
        # a node nor leaves a sliver interval, and the seeded solve converges
        wide = coupled_L20.bvp.mesh
        j = int(np.searchsorted(wide, 0.5))
        L = 20.0 * wide[j]
        for _ in range(abs(offset)):
            L = np.nextafter(L, np.inf if offset > 0 else -np.inf)
        guess = _narrowed_guess(coupled_L20, L)
        h = np.diff(guess[0])
        assert guess[0][0] == 0.0 and guess[0][-1] == 1.0 and np.all(h > 0.0)
        assert h[-1] >= 0.5 * np.min(np.diff(wide)[j - 2:j + 2]) * 20.0 / L
        res = solve_coupled(exact_cfg, quad_flux, exact_freq, L, 2000,
                            guess=guess, tail_tol=1e-3, decay_tol=1e-2)
        assert res.bvp.newton_per_sweep[0] <= 1


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
        # sixth-order collocation with an h^5 residual: a few hundred nodes
        # meet tol = 1e-8 where the 3-stage scheme needed 3456
        f = sine_transverse_flux()
        cfg, freq = standing_shock(f, 1.3, -1.0, 1.0)
        res = solve_coupled(cfg, f, freq, 20.0, 4000)
        assert res.bvp.mesh.size <= 600

    @pytest.mark.parametrize("case", [
        ("sine", 1.0, 20.0), ("sine", 1.3, 20.0), ("sine", 1.5, 20.0),
        ("exact", 1.0, 10.0), ("exact", 1.0, 20.0), ("exact", 1.0, 30.0),
    ])
    def test_beta_at_working_tolerance_matches_a_tight_solve(self, case):
        name, um, L = case
        f = {"sine": sine_transverse_flux, "exact": quadratic_transverse_flux}[name]()
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
        # each warm mesh is sized for its own point, not grown from the last
        f = sine_transverse_flux()
        for pt in sine_scan:
            cold = solve_coupled(pt.config, f, pt.freq, 20.0, 4000)
            assert pt.bvp.mesh.size <= 1.1 * cold.bvp.mesh.size

    @pytest.mark.parametrize("chain", ["sine", "burgers"])
    def test_every_point_equals_its_cold_solve(self, chain, sine_scan,
                                               burgers_scan):
        # each step restarts on the cold starting mesh, so it ends where the
        # cold solve ends: same mesh, same sweeps, beta to rounding
        f, L, N, points = {
            "sine": (sine_transverse_flux(), 20.0, 4000, sine_scan),
            "burgers": (burgers_flux(), 20.0, 8000, burgers_scan),
        }[chain]
        for pt in points:
            cold = solve_coupled(pt.config, f, pt.freq, L, N)
            warm_d, cold_d = pt.aux.diagnostics, cold.aux.diagnostics
            assert warm_d["mesh_size"] == cold_d["mesh_size"]
            assert warm_d["mesh_sweeps"] == cold_d["mesh_sweeps"]
            beta_warm = compute_beta(f, pt.profile, pt.aux).beta
            beta_cold = compute_beta(f, cold.profile, cold.aux).beta
            assert abs(beta_warm - beta_cold) <= 1e-14 * abs(beta_cold)

    def test_sine_steps_take_the_newton_iterations_of_their_cold_solves(
            self, sine_scan):
        # the guess stretched by the end-rate ratios is as close as the
        # outward integration: one Newton iteration per sweep
        f = sine_transverse_flux()
        for pt in sine_scan:
            cold = solve_coupled(pt.config, f, pt.freq, 20.0, 4000)
            assert pt.bvp.newton_per_sweep == cold.bvp.newton_per_sweep == [1, 1]

    def test_burgers_steps_take_at_most_two_newton_iterations(self, burgers_scan):
        # u- = 1, 2, 4, 8: the step to 2 is settled by one more Newton step
        counts = [pt.bvp.newton_per_sweep for pt in burgers_scan]
        assert len(counts) == 4
        for count, bound in zip(counts[1:], ([2], [2, 1], [2, 1])):
            assert len(count) == len(bound)
            assert all(c <= b for c, b in zip(count, bound))

    def test_steps_start_on_the_cold_starting_mesh(self, quad_flux, exact_cfg,
                                                   monkeypatch):
        starts, solved = [], []

        def spy(problem):
            starts.append(problem.initial_mesh.copy())
            sol = bvp_solve(problem)
            solved.append(sol.mesh.copy())
            return sol

        monkeypatch.setattr("shockbeta.coupled.bvp_solve", spy)
        continuation_scan(exact_cfg, quad_flux, 1.0, [1.0, 1.2, 1.2, 1.4],
                          20.0, 1000)
        assert [m.size for m in starts] == [_GUESS_NODES, _GUESS_NODES,
                                            solved[1].size, _GUESS_NODES]
        # the repeated left state is already solved on the previous mesh
        assert np.array_equal(starts[2], solved[1])

    def test_bisection_midpoint_starts_on_the_cold_starting_mesh(
            self, quad_flux, exact_cfg, monkeypatch):
        starts = []

        def failing_once(problem):
            starts.append(problem.initial_mesh.size)
            if len(starts) == 2:
                raise NewtonDivergence("forced failure of the full step")
            return bvp_solve(problem)

        monkeypatch.setattr("shockbeta.coupled.bvp_solve", failing_once)
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0, 1.4], 20.0, 1000)
        # point 0, the failed step, the midpoint, the step from the midpoint
        assert starts == [_GUESS_NODES] * 4
        assert [pt.config.u_minus for pt in pts] == [1.0, 1.4]

    def test_singleton_chain_matches_direct_solve(self, quad_flux, exact_cfg,
                                                  exact_freq, coupled_L20):
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0], 20.0, 4000)
        assert len(pts) == 1
        assert np.max(np.abs(pts[0].aux.v - coupled_L20.aux.v)) <= 1e-9

    def test_built_first_shock_is_used_as_given(self, quad_flux, exact_cfg,
                                                exact_freq, coupled_L20):
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0], 20.0, 4000,
                                freq0=exact_freq)
        assert pts[0].config is exact_cfg and pts[0].freq is exact_freq
        assert np.array_equal(pts[0].aux.v, coupled_L20.aux.v)
        with pytest.raises(ValidationError, match="first left state"):
            continuation_scan(exact_cfg, quad_flux, 1.0, [1.2, 1.4], 20.0, 4000,
                              freq0=exact_freq)

    def test_repeated_parameter_needs_no_extra_newton(self, quad_flux, exact_cfg):
        pts = continuation_scan(exact_cfg, quad_flux, 1.0, [1.0, 1.0], 20.0, 1000)
        assert pts[1].bvp.newton_iters <= 1

    def test_stall_preserves_prior_points(self, quad_flux, exact_cfg):
        with pytest.raises(ContinuationStalled) as ei:
            continuation_scan(
                exact_cfg, quad_flux, 1.0, [1.0, -3.0], 20.0, 1000
            )
        assert ei.value.index == 1
        assert len(ei.value.results) == 1

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
