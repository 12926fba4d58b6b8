import warnings

import numpy as np
import pytest

from shockbeta.auxiliary import AuxMethod
from shockbeta.beta import compute_beta
from shockbeta.errors import (
    GridMismatch,
    QuadratureDegraded,
    TailNotResolved,
    ValidationError,
)
from shockbeta.integrating_factor import solve_auxiliary_if, solve_v_if
from shockbeta.model import (
    NeutralFrequency,
    burgers_flux,
    forcing,
    neutral_zero,
    normalize_to_standing,
    rankine_hugoniot_speed,
    sine_transverse_flux,
)
from shockbeta.profile import Grid, solve_profile

from conftest import exact_v


@pytest.fixture(scope="module")
def exact_ps(exact_cfg):
    return solve_profile(exact_cfg, Grid.make(20.0, 800))


@pytest.fixture(scope="module")
def sine_case():
    """Sine transverse flux, u- = 1.2, u+ = -1, xi0 = 1 (one sine_scan point)."""
    f = sine_transverse_flux()
    cfg = normalize_to_standing(burgers_flux(), 1.2, -1.0, 0.1)
    return f, cfg, neutral_zero(cfg, f, 1.0)


class TestForcing:
    def test_exact_case_closed_form(self, quad_flux, exact_freq, exact_ps):
        # tau0 = 0, xi0 = 1, f2 = u^2: forcing is ubar^2 - 1 = -sech^2(x/2)
        F = forcing(quad_flux, exact_freq, exact_ps.config.u_minus, exact_ps.ubar)
        expected = -1.0 / np.cosh(exact_ps.grid.x / 2.0) ** 2
        assert np.max(np.abs(F - expected)) < 1e-14

    def test_far_field_limits_vanish_at_neutral_zero(self, quad_flux, exact_freq,
                                                     exact_ps):
        F = forcing(quad_flux, exact_freq, exact_ps.config.u_minus, exact_ps.ubar)
        assert abs(F[0]) < 1e-6
        assert abs(F[-1]) < 1e-6

    def test_zero_frequency_zero_forcing(self, quad_flux, exact_ps):
        F = forcing(quad_flux, NeutralFrequency(0.0, 0.0), exact_ps.config.u_minus,
                    exact_ps.ubar)
        assert np.array_equal(F, np.zeros_like(F))


class TestSolveV:
    def test_exact_solution(self, quad_flux, exact_freq, exact_ps):
        F = forcing(quad_flux, exact_freq, exact_ps.config.u_minus, exact_ps.ubar)
        v = solve_v_if(exact_ps, F)
        assert np.max(np.abs(v - exact_v(exact_ps.grid.x))) < 2e-6

    def test_zero_forcing_zero_solution(self, exact_ps):
        v = solve_v_if(exact_ps, np.zeros_like(exact_ps.ubar))
        assert np.array_equal(v, np.zeros_like(v))

    def test_grid_mismatch(self, exact_ps):
        with pytest.raises(GridMismatch):
            solve_v_if(exact_ps, np.zeros(7))

    def test_coarse_grid_warns(self, sine_case):
        # the exact case never warns: F/ubar' = 2 there, so the estimate is 0
        f, cfg, freq = sine_case
        ps = solve_profile(cfg, Grid.make(20.0, 400))
        with pytest.warns(QuadratureDegraded):
            solve_v_if(ps, forcing(f, freq, ps.config.u_minus, ps.ubar))

    def test_refinement_warning_is_per_unit_xi0(self):
        # v is linear in xi0, so a grid that resolves v at xi0 = 1 (estimate
        # 4.1e-7) resolves it at xi0 = 30 (30 times the estimate) as well
        f = sine_transverse_flux()
        s = rankine_hugoniot_speed(f, 1.5, -1.0)
        cfg = normalize_to_standing(f, 1.5, -1.0, s)
        ps = solve_profile(cfg, Grid.make(20.0, 4000))
        for xi0 in (1.0, 30.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", QuadratureDegraded)
                aux = solve_auxiliary_if(f, neutral_zero(cfg, f, xi0), ps)
            assert aux.grid == ps.grid

    @pytest.mark.filterwarnings("ignore::shockbeta.errors.QuadratureDegraded")
    def test_linearity_doubling_forcing_doubles_v(self, quad_flux, exact_ps):
        # doubling xi0 doubles the forcing and hence v, bit for bit
        freq1 = NeutralFrequency(0.0, 1.0)
        freq2 = NeutralFrequency(0.0, 2.0)
        F1 = forcing(quad_flux, freq1, exact_ps.config.u_minus, exact_ps.ubar)
        F2 = forcing(quad_flux, freq2, exact_ps.config.u_minus, exact_ps.ubar)
        assert np.array_equal(F2, 2.0 * F1)
        v1 = solve_v_if(exact_ps, F1)
        v2 = solve_v_if(exact_ps, F2)
        assert np.array_equal(v2, 2.0 * v1)

    @pytest.mark.filterwarnings("ignore::shockbeta.errors.QuadratureDegraded")
    def test_ode_residual_second_order(self, quad_flux, exact_freq, exact_cfg):
        # centered differences of v recover a1*v + forcing at O(h^2)
        residuals = []
        for n in (400, 800):
            g = Grid.make(20.0, n)
            ps = solve_profile(exact_cfg, g)
            F = forcing(quad_flux, exact_freq, ps.config.u_minus, ps.ubar)
            v = solve_v_if(ps, F)
            dv = (v[2:] - v[:-2]) / (2.0 * g.h)
            rhs = exact_cfg.a1_shifted(ps.ubar[1:-1]) * v[1:-1] + F[1:-1]
            residuals.append(np.max(np.abs(dv - rhs)))
        # second order: one refinement shrinks the residual about 4x
        assert residuals[0] / residuals[1] > 3.0
        assert residuals[1] < 1e-3


class TestAccuracy:
    @pytest.mark.parametrize("N", [200, 800, 4000])
    def test_exact_v_at_rounding_level(self, quad_flux, exact_cfg, exact_freq, N):
        # F/ubar' = 2, so the quadrature is exact and only rounding remains
        ps = solve_profile(exact_cfg, Grid.make(20.0, N))
        F = forcing(quad_flux, exact_freq, ps.config.u_minus, ps.ubar)
        v = solve_v_if(ps, F)
        assert np.max(np.abs(v - exact_v(ps.grid.x))) <= 1e-13

    @pytest.mark.parametrize("L", [800.0, 2000.0])
    def test_long_domain_beta(self, quad_flux, exact_cfg, exact_freq, L):
        # exp(int a1) would reach exp(L) here, far beyond the largest double
        ps = solve_profile(exact_cfg, Grid.make(L, 40000))
        aux = solve_auxiliary_if(quad_flux, exact_freq, ps)
        assert np.all(np.isfinite(aux.v))
        beta = compute_beta(quad_flux, ps, aux).beta
        assert abs(beta - 10.0) <= 1e-12

    @pytest.mark.filterwarnings("ignore::shockbeta.errors.QuadratureDegraded")
    def test_saturated_tail_adds_nothing(self):
        # sine flux, u- = 1.3: where the profile has reached an end state the
        # field is exactly 0 and so is v, so beta does not drift with L at
        # equal h
        f = sine_transverse_flux()
        cfg = normalize_to_standing(f, 1.3, -1.0, rankine_hugoniot_speed(f, 1.3, -1.0))
        freq = neutral_zero(cfg, f, 1.0)
        betas = []
        for L in (200.0, 800.0):
            ps = solve_profile(cfg, Grid.make(L, int(200 * L)))
            aux = solve_auxiliary_if(f, freq, ps)
            at_end = (ps.ubar == cfg.u_plus) | (ps.ubar == cfg.u_minus)
            assert at_end[0] and at_end[-1]
            assert np.all(aux.v[at_end] == 0.0)
            betas.append(compute_beta(f, ps, aux).beta.real)
        assert abs(betas[1] / betas[0] - 1.0) <= 1e-13

    def test_offset_weak_shock(self, quad_flux):
        # u+- = (9.9, 10.1): the jump is small against the states themselves
        s = rankine_hugoniot_speed(quad_flux, 10.1, 9.9)
        cfg = normalize_to_standing(quad_flux, 10.1, 9.9, s)
        freq = neutral_zero(cfg, quad_flux, 1.0)
        ps = solve_profile(cfg, Grid.make(300.0, 60000))
        aux = solve_auxiliary_if(quad_flux, freq, ps)
        assert abs(compute_beta(quad_flux, ps, aux).beta - 10.0) <= 2e-10

    @pytest.mark.filterwarnings("ignore::shockbeta.errors.QuadratureDegraded")
    def test_beta_fourth_order(self, sine_case):
        f, cfg, freq = sine_case
        betas = []
        for n in (1000, 2000, 4000):
            ps = solve_profile(cfg, Grid.make(20.0, n))
            betas.append(compute_beta(f, ps, solve_auxiliary_if(f, freq, ps)).beta.real)
        ratio = (betas[0] - betas[1]) / (betas[1] - betas[2])
        assert ratio >= 2.0**3.7


class TestAssembled:
    @pytest.mark.filterwarnings("ignore::shockbeta.errors.QuadratureDegraded")
    def test_two_norm_error_and_refinement(self, quad_flux, exact_cfg, exact_freq,
                                           sine_case):
        errs = {}
        for n in (512, 1024):
            g = Grid.make(20.0, n)
            ps = solve_profile(exact_cfg, g)
            aux = solve_auxiliary_if(quad_flux, exact_freq, ps)
            errs[n] = np.sqrt(np.sum((aux.v - exact_v(g.x)) ** 2))
        assert errs[512] <= 5e-4
        assert errs[1024] <= 1e-5
        # the exact case sits at rounding level; refinement shows on the sine
        # case, against v at 4096 intervals on the shared nodes
        f, cfg, freq = sine_case
        vs = {}
        for n in (512, 1024, 4096):
            ps = solve_profile(cfg, Grid.make(20.0, n))
            vs[n] = solve_auxiliary_if(f, freq, ps).v
        sine_errs = {
            n: np.sqrt(np.sum((vs[n] - vs[4096][:: 4096 // n]) ** 2)) for n in (512, 1024)
        }
        assert sine_errs[1024] < sine_errs[512]

    def test_method_tag_and_origin(self, quad_flux, exact_cfg, exact_freq):
        ps = solve_profile(exact_cfg, Grid.make(20.0, 512))
        aux = solve_auxiliary_if(quad_flux, exact_freq, ps)
        assert aux.method is AuxMethod.INTEGRATING_FACTOR
        i0 = aux.grid.origin_index
        assert aux.v[i0] == 0.0

    def test_odd_N_profile_rejected(self, quad_flux, exact_cfg, exact_freq):
        # the origin, where v = 0 is imposed, is a node only for even N
        ps = solve_profile(exact_cfg, Grid.make(20.0, 513))
        with pytest.raises(ValidationError, match="origin is a node only for even"):
            solve_auxiliary_if(quad_flux, exact_freq, ps)

    def test_decay_gate(self, quad_flux, exact_cfg):
        # narrow domain: the correction tails stay visibly above the gate
        freq = neutral_zero(exact_cfg, quad_flux, 1.0)
        ps = solve_profile(exact_cfg, Grid.make(10.0, 512), tail_tol=1e-3)
        with pytest.raises(TailNotResolved):
            solve_auxiliary_if(quad_flux, freq, ps)
        aux = solve_auxiliary_if(quad_flux, freq, ps, decay_tol=1e-2)
        assert aux.tail_magnitudes() < 1e-2

    def test_sine_flux_nonzero_tau(self):
        from shockbeta.model import burgers_flux, normalize_to_standing

        f = sine_transverse_flux()
        cfg = normalize_to_standing(burgers_flux(), 1.1, -1.0, 0.05)
        freq = neutral_zero(cfg, f, 1.0)
        assert freq.tau0 != 0.0
        ps = solve_profile(cfg, Grid.make(20.0, 1024))
        # N = 1024 is too coarse for the cumulative Simpson rule here
        with pytest.warns(QuadratureDegraded):
            aux = solve_auxiliary_if(f, freq, ps)
        assert np.max(np.abs(aux.v)) > 0.0
