import numpy as np
import pytest
from scipy.optimize import brentq

from shockbeta.errors import SolverError, TailNotResolved, ValidationError
from shockbeta.model import burgers_flux, normalize_to_standing
from shockbeta.numerics import IvpProblem, ivp_solve
from shockbeta.profile import Grid, exact_burgers_profile, solve_profile

from conftest import exact_profile


class TestGrid:
    def test_make(self):
        g = Grid.make(20.0, 4000)
        assert g.x[0] == -20.0
        assert g.x[-1] == 20.0
        assert g.x.size == 4001
        assert g.h == pytest.approx(0.01)
        assert g.origin_index == 2000
        assert g.x[g.origin_index] == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            Grid.make(-1.0, 100)
        with pytest.raises(ValidationError):
            Grid.make(10.0, 1)
        with pytest.raises(ValidationError):
            Grid(L=10.0, N=4, x=np.array([-10.0, -1.0, 0.0, 1.0, 10.0]))

    def test_origin_needs_even_intervals(self):
        with pytest.raises(ValidationError):
            _ = Grid.make(10.0, 101).origin_index


class TestExactProfile:
    def test_values(self):
        g = Grid.make(20.0, 4000)
        ps = exact_burgers_profile(g)
        i0 = g.origin_index
        assert ps.ubar[i0] == 0.0
        i2 = np.searchsorted(g.x, 2.0)
        assert ps.ubar[i2] == pytest.approx(-np.tanh(1.0), abs=1e-15)
        # odd symmetry up to node rounding
        assert np.max(np.abs(ps.ubar + ps.ubar[::-1])) <= 2e-15
        assert ps.exact

    def test_derivative_consistent_with_equation(self):
        g = Grid.make(10.0, 500)
        ps = exact_burgers_profile(g)
        assert np.max(np.abs(ps.ubar_prime - 0.5 * (ps.ubar**2 - 1.0))) == 0.0


class TestSolveProfile:
    def test_matches_exact_solution(self, exact_cfg, grid_L20, profile_L20):
        err = np.max(np.abs(profile_L20.ubar - exact_profile(grid_L20.x)))
        assert err <= 1e-9

    def test_midpoint_anchor(self, profile_L20):
        i0 = profile_L20.grid.origin_index
        assert profile_L20.ubar[i0] == 0.0
        assert profile_L20.ubar_prime[i0] == -0.5

    def test_shifted_shock_midpoint(self):
        cfg = normalize_to_standing(burgers_flux(), 1.2, -1.0, 0.1)
        g = Grid.make(20.0, 2000)
        ps = solve_profile(cfg, g)
        assert ps.ubar[g.origin_index] == pytest.approx(0.1, abs=1e-15)
        assert np.all(np.diff(ps.ubar) < 0)

    def test_tail_not_resolved_for_small_domain(self, exact_cfg):
        with pytest.raises(TailNotResolved):
            solve_profile(exact_cfg, Grid.make(1.0, 100))

    def test_non_monotone_profile_is_solver_error(self, exact_cfg):
        # dense-output wiggles in the saturated tails of a wide domain
        with pytest.raises(SolverError, match="not monotone"):
            solve_profile(exact_cfg, Grid.make(40.0, 4000))

    def test_derivative_is_rhs_not_differences(self, exact_cfg, profile_L20):
        c0 = exact_cfg.f1_shifted(exact_cfg.u_minus)
        expected = exact_cfg.f1_shifted(profile_L20.ubar) - c0
        assert np.array_equal(profile_L20.ubar_prime, expected)

    def test_derivative_one_sign(self, profile_L20):
        assert np.all(profile_L20.ubar_prime <= 0.0)

    def test_translation_quotient(self, exact_cfg, grid_L20, profile_L20):
        # start from any state on the orbit, re-center, and recover the profile
        c0 = exact_cfg.f1_shifted(exact_cfg.u_minus)

        def rhs(t, y):
            return exact_cfg.f1_shifted(y) - c0

        span = grid_L20.L + 5.0
        fwd = ivp_solve(IvpProblem(rhs=rhs, t_span=(0.0, span),
                                   y0=np.array([0.3]), rtol=1e-12, atol=1e-14))
        bwd = ivp_solve(IvpProblem(rhs=rhs, t_span=(0.0, -span),
                                   y0=np.array([0.3]), rtol=1e-12, atol=1e-14))

        def u_at(x):
            return fwd(x)[0] if x >= 0 else bwd(x)[0]

        x_star = brentq(lambda x: u_at(x) - exact_cfg.u_mid, -4.0, 4.0, xtol=1e-14)
        inner = np.abs(grid_L20.x + x_star) <= span
        shifted = np.array([u_at(x) for x in grid_L20.x[inner] + x_star])
        assert np.max(np.abs(shifted - profile_L20.ubar[inner])) <= 1e-8

    def test_grid_refinement_reduces_error_at_integrator_order(self, exact_cfg):
        # loose tolerances with max_step = h put the step size in control
        errs = []
        for n in (250, 500):
            g = Grid.make(20.0, n)
            ps = solve_profile(exact_cfg, g, rtol=1e-3, atol=1e-3, max_step=g.h)
            errs.append(np.max(np.abs(ps.ubar - exact_profile(g.x))))
        # order p = 4 for the embedded pair: factor >= 2^4 less 20 percent
        assert errs[0] / errs[1] >= 2**4 * 0.8
