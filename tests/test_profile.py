import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from shockbeta.auxiliary import AuxMethod
from shockbeta.beta import compute_beta, solve_pair
from shockbeta.errors import SolverError, TailNotResolved, ValidationError
from shockbeta.model import (
    burgers_flux,
    custom_flux,
    neutral_zero,
    normalize_to_standing,
    rankine_hugoniot_speed,
)
from shockbeta.numerics import IvpProblem, ivp_solve
from shockbeta.profile import Grid, _check_profile, solve_profile

from conftest import exact_profile

# f1 = u^2/2 + u^3/10: rest points -1, 1 and -5, so u-+ = +-1 is admissible;
# a custom f1 of degree 3 takes the IVP path
CUBIC = custom_flux([0.0, 0.0, 0.5, 0.1], [0.0, 0.0, 1.0])


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
        with pytest.raises(TypeError):  # x follows from (L, N)
            Grid(L=10.0, N=4, x=np.array([-10.0, -1.0, 0.0, 1.0, 10.0]))

    def test_origin_needs_even_intervals(self):
        with pytest.raises(ValidationError):
            _ = Grid.make(10.0, 101).origin_index

    def test_coarsening_through_the_origin_needs_four_intervals(self):
        # N = 2 leaves one node on the every-other-node grid through the origin
        with pytest.raises(ValidationError) as ei:
            Grid.make(10.0, 2)
        assert str(ei.value) == "field 'N': 2 intervals; the grid needs N >= 4"
        for N in (4, 6):
            g = Grid.make(10.0, N)
            assert g.x[g.origin_index % 2::2].size == 3

    def test_budget_checked_before_parity(self):
        with pytest.raises(ValidationError) as ei:
            Grid.make(1.0, 10**7 + 1)
        msg = str(ei.value)
        assert msg == "field 'N': 10000001 intervals exceed the budget of 10000000"


class TestExactProfile:
    def test_values(self, exact_cfg):
        g = Grid.make(20.0, 4000)
        ps = solve_profile(exact_cfg, g)
        i0 = g.origin_index
        assert ps.ubar[i0] == 0.0
        i2 = np.searchsorted(g.x, 2.0)
        assert ps.ubar[i2] == pytest.approx(-np.tanh(1.0), abs=1e-15)
        # odd symmetry up to node rounding
        assert np.max(np.abs(ps.ubar + ps.ubar[::-1])) <= 2e-15
        assert ps.exact

    def test_derivative_consistent_with_equation(self, exact_cfg):
        g = Grid.make(10.0, 500)
        ps = solve_profile(exact_cfg, g, tail_tol=1e-3)  # tails 9.1e-5 at L = 10
        expected = (ps.ubar + 1.0) * (ps.ubar - 1.0) * 0.5
        assert np.max(np.abs(ps.ubar_prime - expected)) == 0.0

    def test_standard_case_is_tanh_to_the_bit(self, exact_cfg, grid_L20):
        ps = solve_profile(exact_cfg, grid_L20)
        ubar = -np.tanh(grid_L20.x / 2.0)
        assert np.array_equal(ps.ubar, ubar)
        assert np.array_equal(ps.ubar_prime, (ubar + 1.0) * (ubar - 1.0) * 0.5)
        assert ps.diagnostics["method"] == "tanh"

    def test_custom_quadratic_matches_builtin(self, exact_cfg, grid_L20):
        f = custom_flux([0.0, 0.0, 0.5], [0.0, 0.0, 1.0])
        cfg = normalize_to_standing(f, 1.0, -1.0, 0.0)
        assert cfg.q_coeffs == (0.5,)
        custom = solve_profile(cfg, grid_L20)
        builtin = solve_profile(exact_cfg, grid_L20)
        assert np.array_equal(custom.ubar, builtin.ubar)
        assert np.array_equal(custom.ubar_prime, builtin.ubar_prime)

    def test_saturated_samples_are_end_states(self):
        # u_mid - delta = 0.15 - 1.15 is not -1 in floating point
        f = burgers_flux()
        cfg = normalize_to_standing(f, 1.3, -1.0, rankine_hugoniot_speed(f, 1.3, -1.0))
        ps = solve_profile(cfg, Grid.make(40.0, 8000))
        assert ps.ubar[0] == 1.3
        assert ps.ubar[-1] == -1.0
        assert ps.ubar_prime[0] == 0.0
        assert ps.ubar_prime[-1] == 0.0

    def test_cubic_custom_takes_ivp_path(self):
        f = CUBIC
        s = rankine_hugoniot_speed(f, 1.0, -1.0)
        cfg = normalize_to_standing(f, 1.0, -1.0, s)
        assert len(cfg.q_coeffs) == 2
        ps = solve_profile(cfg, Grid.make(20.0, 2000))
        assert ps.diagnostics["method"] == "ivp"
        assert not ps.exact
        _check_profile(ps, 1e-6)

    @pytest.mark.parametrize("L, N", [(20.0, 154), (30.0, 22)])
    def test_cubic_custom_pins_the_centre_node_off_exact_zero(self, L, N):
        # linspace puts these grids' centre node at -3.55e-15, not 0.0; the
        # pin still lands on it
        grid = Grid.make(L, N)
        assert grid.x[grid.origin_index] != 0.0
        cfg = normalize_to_standing(CUBIC, 1.0, -1.0,
                                    rankine_hugoniot_speed(CUBIC, 1.0, -1.0))
        ps = solve_profile(cfg, grid)
        assert ps.ubar[grid.origin_index] == cfg.u_mid


@pytest.mark.parametrize("um", [1.0, 1.3])
@pytest.mark.parametrize("L", [40.0, 100.0])
def test_cubic_custom_wide_domain_matches_coupled(um, L):
    # the IVP profile reaches the end states on wide domains without
    # overshooting them, and the two routes agree
    s = rankine_hugoniot_speed(CUBIC, um, -1.0)
    cfg = normalize_to_standing(CUBIC, um, -1.0, s)
    freq = neutral_zero(cfg, CUBIC, 1.0)
    betas = []
    for method in (AuxMethod.INTEGRATING_FACTOR, AuxMethod.COUPLED):
        ps, aux, _ = solve_pair(cfg, CUBIC, freq, method, L, int(200 * L),
                                decay_tol=1e-6)
        betas.append(compute_beta(CUBIC, ps, aux).beta.real)
    assert abs(betas[0] / betas[1] - 1.0) <= 1e-11


def test_cubic_custom_profile_steps_do_not_grow_with_the_tails(monkeypatch):
    # in log-deviation form the saturated tails are nearly linear, so the
    # step count stays flat as L grows (7459 steps at L = 100 for the
    # deviation itself), and the routes still agree
    steps = []

    def counted(problem):
        traj = ivp_solve(problem)
        steps.append(len(traj.t) - 1)
        return traj

    monkeypatch.setattr("shockbeta.profile.ivp_solve", counted)
    s = rankine_hugoniot_speed(CUBIC, 1.0, -1.0)
    cfg = normalize_to_standing(CUBIC, 1.0, -1.0, s)
    freq = neutral_zero(cfg, CUBIC, 1.0)
    betas = []
    for method in (AuxMethod.INTEGRATING_FACTOR, AuxMethod.COUPLED):
        ps, aux, _ = solve_pair(cfg, CUBIC, freq, method, 100.0, 20000,
                                decay_tol=1e-6)
        betas.append(compute_beta(CUBIC, ps, aux).beta.real)
    assert len(steps) == 1 and steps[0] <= 300
    assert abs(betas[0] / betas[1] - 1.0) <= 1e-12


def test_cubic_custom_profile_evaluates_each_half_once(monkeypatch):
    # each half of the folded trajectory is evaluated on its own side only;
    # the profile is bit-equal to evaluating both halves everywhere
    trajs = []

    def kept(problem):
        trajs.append(ivp_solve(problem))
        return trajs[-1]

    monkeypatch.setattr("shockbeta.profile.ivp_solve", kept)
    s = rankine_hugoniot_speed(CUBIC, 1.0, -1.0)
    cfg = normalize_to_standing(CUBIC, 1.0, -1.0, s)
    grid = Grid.make(100.0, 20000)
    ps = solve_profile(cfg, grid)
    ends = np.array([cfg.u_plus, cfg.u_minus])
    sign = np.sign(cfg.u_mid - ends)
    folded = ends[:, None] + sign[:, None] * np.exp(trajs[0](np.abs(grid.x)))
    both = np.where(grid.x >= 0.0, folded[0], folded[1])
    both[grid.x == 0.0] = cfg.u_mid
    assert np.array_equal(ps.ubar, both)
    assert np.array_equal(trajs[0](grid.x[-5:], rows=slice(1, 2))[0],
                          trajs[0](grid.x[-5:])[1])


# (u-, u+, L, N): wide domains and strong shocks, each at the dimensionless
# step a*delta*h = 0.01 of the standard case at L = 40, N = 4000
WIDE_AND_STRONG = [
    (1.0, -1.0, 40.0, 4000),
    (1.0, -1.0, 200.0, 20000),
    (1.0, -1.0, 800.0, 80000),
    (3.0, -1.0, 20.0, 4000),
    (10.0, -10.0, 20.0, 20000),
]


@pytest.mark.parametrize("um, up, L, N", WIDE_AND_STRONG)
def test_wide_and_strong_shocks_succeed(quad_flux, um, up, L, N):
    # beta = 10 for f2 = u^2, xi0 = 1 and any admissible end states
    s = rankine_hugoniot_speed(quad_flux, um, up)
    cfg = normalize_to_standing(quad_flux, um, up, s)
    freq = neutral_zero(cfg, quad_flux, 1.0)
    ps, aux, _ = solve_pair(cfg, quad_flux, freq, AuxMethod.INTEGRATING_FACTOR,
                            L, N, decay_tol=math.inf)
    assert np.all(np.diff(ps.ubar) <= 0.0)
    eta = 0.25 * (um - up) * ps.grid.h  # a*delta*h with a = 1/2
    beta = compute_beta(quad_flux, ps, aux).beta
    assert abs(beta - 10.0) <= eta**3


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

    def test_tail_gate_is_relative_to_the_jump(self):
        # a jump of 2e-9 keeps both endpoint residuals below 1e-6 at any L,
        # yet at L = 20 the layer, of width 1e9, has not begun to turn
        cfg = normalize_to_standing(burgers_flux(), 1e-9, -1e-9, 0.0)
        with pytest.raises(TailNotResolved, match=r"\(1\.000e-09, 1\.000e-09\) exceed "
                           r"1\.0e-06 times the jump 2\.000e-09; increase L"):
            solve_profile(cfg, Grid.make(20.0, 4000))

    def test_non_monotone_profile_is_solver_error(self, profile_L20):
        ubar = profile_L20.ubar.copy()
        ubar[100] += 1e-9  # a wiggle in the saturated left tail
        wiggly = dataclasses.replace(profile_L20, ubar=ubar)
        with pytest.raises(SolverError, match="not monotone"):
            _check_profile(wiggly, 1e-6)

    def test_derivative_is_rhs_not_differences(self, exact_cfg, profile_L20):
        expected = exact_cfg.profile_field(profile_L20.ubar)
        assert np.array_equal(profile_L20.ubar_prime, expected)

    def test_derivative_one_sign(self, profile_L20):
        assert np.all(profile_L20.ubar_prime <= 0.0)

    def test_translation_quotient(self, exact_cfg, grid_L20, profile_L20):
        # start from any state on the orbit, re-center, and recover the profile
        def rhs(t, y):
            return exact_cfg.profile_field(y)

        def left_rhs(t, y):
            # u(-t) for t >= 0: the left half integrated forward
            return -rhs(t, y)

        span = grid_L20.L + 5.0
        fwd = ivp_solve(IvpProblem(rhs=rhs, t_span=(0.0, span),
                                   y0=np.array([0.3]), rtol=1e-12, atol=1e-14))
        bwd = ivp_solve(IvpProblem(rhs=left_rhs, t_span=(0.0, span),
                                   y0=np.array([0.3]), rtol=1e-12, atol=1e-14))

        def u_at(x):
            return fwd(x)[0] if x >= 0 else bwd(-x)[0]

        x_star = brentq(lambda x: u_at(x) - exact_cfg.u_mid, -4.0, 4.0, xtol=1e-14)
        inner = np.abs(grid_L20.x + x_star) <= span
        shifted = np.array([u_at(x) for x in grid_L20.x[inner] + x_star])
        assert np.max(np.abs(shifted - profile_L20.ubar[inner])) <= 1e-8

    def test_grid_refinement_reduces_error_at_integrator_order(self, exact_cfg):
        # the profile equation as one folded outward sweep; loose tolerances
        # with max_step = h put the step size in control
        outward = np.array([1.0, -1.0])

        def rhs(t, y):
            return outward * exact_cfg.profile_field(y)

        errs = []
        for n in (250, 500):
            g = Grid.make(20.0, n)
            traj = ivp_solve(IvpProblem(rhs=rhs, t_span=(0.0, g.L),
                                        y0=np.full(2, exact_cfg.u_mid),
                                        rtol=1e-3, atol=1e-3, max_step=g.h))
            folded = traj(np.abs(g.x))
            ubar = np.where(g.x >= 0.0, folded[0], folded[1])
            errs.append(np.max(np.abs(ubar - exact_profile(g.x))))
        # order p = 4 for the embedded pair: factor >= 2^4 less 20 percent
        assert errs[0] / errs[1] >= 2**4 * 0.8
