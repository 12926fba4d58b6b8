import numpy as np
import pytest

from shockbeta.auxiliary import AuxMethod
from shockbeta.errors import GridMismatch, QuadratureDegraded, TailNotResolved
from shockbeta.integrating_factor import (
    forcing,
    log_integrating_factor,
    solve_auxiliary_if,
    solve_v_if,
)
from shockbeta.model import (
    NeutralFrequency,
    burgers_flux,
    neutral_zero,
    normalize_to_standing,
    sine_transverse_flux,
)
from shockbeta.profile import Grid, exact_burgers_profile, solve_profile

from conftest import exact_v


@pytest.fixture(scope="module")
def exact_ps():
    return exact_burgers_profile(Grid.make(20.0, 800))


class TestForcing:
    def test_exact_case_closed_form(self, quad_flux, exact_freq, exact_ps):
        # tau0 = 0, xi0 = 1, f2 = u^2: forcing is ubar^2 - 1 = -sech^2(x/2)
        F = forcing(quad_flux, exact_freq, exact_ps)
        expected = -1.0 / np.cosh(exact_ps.grid.x / 2.0) ** 2
        assert np.max(np.abs(F - expected)) < 1e-14

    def test_far_field_limits_vanish_at_neutral_zero(self, quad_flux, exact_freq,
                                                     exact_ps):
        F = forcing(quad_flux, exact_freq, exact_ps)
        assert abs(F[0]) < 1e-6
        assert abs(F[-1]) < 1e-6

    def test_zero_frequency_zero_forcing(self, quad_flux, exact_ps):
        F = forcing(quad_flux, NeutralFrequency(0.0, 0.0), exact_ps)
        assert np.array_equal(F, np.zeros_like(F))


class TestIntegratingFactor:
    def test_exact_profile_gives_cosh_squared(self, exact_ps):
        M = np.exp(-log_integrating_factor(exact_ps))
        expected = np.cosh(exact_ps.grid.x / 2.0) ** 2
        assert np.max(np.abs(M / expected - 1.0)) < 1e-5

    def test_unit_value_at_origin(self, exact_ps):
        E = log_integrating_factor(exact_ps)
        assert np.exp(-E[exact_ps.grid.origin_index]) == 1.0


class TestSolveV:
    def test_exact_solution(self, quad_flux, exact_freq, exact_ps):
        F = forcing(quad_flux, exact_freq, exact_ps)
        v = solve_v_if(exact_ps, F)
        assert np.max(np.abs(v - exact_v(exact_ps.grid.x))) < 2e-6

    def test_zero_forcing_zero_solution(self, exact_ps):
        v = solve_v_if(exact_ps, np.zeros_like(exact_ps.ubar))
        assert np.array_equal(v, np.zeros_like(v))

    def test_grid_mismatch(self, exact_ps):
        with pytest.raises(GridMismatch):
            solve_v_if(exact_ps, np.zeros(7))

    def test_coarse_grid_warns(self, quad_flux, exact_freq):
        ps = exact_burgers_profile(Grid.make(20.0, 200))
        F = forcing(quad_flux, exact_freq, ps)
        with pytest.warns(QuadratureDegraded):
            solve_v_if(ps, F)

    def test_linearity_doubling_forcing_doubles_v(self, quad_flux, exact_ps):
        # doubling xi0 doubles the forcing and hence v, bit for bit
        freq1 = NeutralFrequency(0.0, 1.0)
        freq2 = NeutralFrequency(0.0, 2.0)
        F1 = forcing(quad_flux, freq1, exact_ps)
        F2 = forcing(quad_flux, freq2, exact_ps)
        assert np.array_equal(F2, 2.0 * F1)
        v1 = solve_v_if(exact_ps, F1, warn_estimate_tol=None)
        v2 = solve_v_if(exact_ps, F2, warn_estimate_tol=None)
        assert np.array_equal(v2, 2.0 * v1)

    def test_ode_residual_second_order(self, quad_flux, exact_freq, exact_cfg):
        # centered differences of v recover a1*v + forcing at O(h^2)
        residuals = []
        for n in (400, 800):
            g = Grid.make(20.0, n)
            ps = exact_burgers_profile(g)
            F = forcing(quad_flux, exact_freq, ps)
            v = solve_v_if(ps, F, warn_estimate_tol=None)
            dv = (v[2:] - v[:-2]) / (2.0 * g.h)
            rhs = exact_cfg.a1_shifted(ps.ubar[1:-1]) * v[1:-1] + F[1:-1]
            residuals.append(np.max(np.abs(dv - rhs)))
        # second order: one refinement shrinks the residual about 4x
        assert residuals[0] / residuals[1] > 3.0
        assert residuals[1] < 1e-3


def _loop_march(E, F, h):
    """Node-by-node march of v_j = exp(E_j) int_0^{x_j} exp(-E) F: cumulative
    Simpson (a trapezoid on odd prefixes) with one- and two-interval ratios."""
    n = E.size
    v = np.zeros(n)
    e1 = np.exp(E[1:] - E[:-1])
    for j in range(1, n):
        r1 = e1[j - 1]
        if j % 2 == 1:
            v[j] = r1 * v[j - 1] + (h / 2.0) * (r1 * F[j - 1] + F[j])
        else:
            r2 = r1 * e1[j - 2]
            v[j] = r2 * v[j - 2] + (h / 3.0) * (
                r2 * F[j - 2] + 4.0 * r1 * F[j - 1] + F[j]
            )
    return v


def _loop_v(ps, F):
    """Reference v: the loop run from the anchor over each half separately."""
    E = log_integrating_factor(ps)
    ic, h = ps.grid.origin_index, ps.grid.h
    v = np.empty_like(F)
    v[ic:] = _loop_march(E[ic:], F[ic:], h)
    v[: ic + 1] = _loop_march(E[ic::-1], F[ic::-1], -h)[::-1]
    return v


class TestFoldedMarch:
    """The folded, block re-anchored march against the node-by-node loop."""

    def _assert_matches_loop(self, ps, F):
        v = solve_v_if(ps, F, warn_estimate_tol=None)
        ref = _loop_v(ps, F)
        assert np.all(np.isfinite(v))
        assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_exact_profile(self, quad_flux, exact_freq):
        ps = exact_burgers_profile(Grid.make(20.0, 4000))
        self._assert_matches_loop(ps, forcing(quad_flux, exact_freq, ps))

    def test_sine_profile(self):
        f = sine_transverse_flux()
        cfg = normalize_to_standing(burgers_flux(), 1.1, -1.0, 0.05)
        ps = solve_profile(cfg, Grid.make(20.0, 4000))
        self._assert_matches_loop(ps, forcing(f, neutral_zero(cfg, f, 1.0), ps))

    @pytest.mark.parametrize("L", [800.0, 2000.0])
    def test_long_domain_stays_finite(self, quad_flux, exact_freq, L):
        # M = exp(-E) reaches exp(L) here, far beyond the largest double
        ps = exact_burgers_profile(Grid.make(L, 40000))
        assert np.max(np.abs(log_integrating_factor(ps))) > 709.0
        self._assert_matches_loop(ps, forcing(quad_flux, exact_freq, ps))


class TestAssembled:
    def test_two_norm_error_and_refinement(self, quad_flux, exact_cfg, exact_freq):
        errs = {}
        for n in (512, 1024):
            g = Grid.make(20.0, n)
            ps = solve_profile(exact_cfg, g)
            aux = solve_auxiliary_if(quad_flux, exact_freq, ps)
            errs[n] = np.sqrt(np.sum((aux.v - exact_v(g.x)) ** 2))
        assert errs[512] <= 5e-4
        assert errs[1024] <= 1e-5
        assert errs[1024] < errs[512]

    def test_method_tag_and_origin(self, quad_flux, exact_cfg, exact_freq):
        ps = solve_profile(exact_cfg, Grid.make(20.0, 512))
        aux = solve_auxiliary_if(quad_flux, exact_freq, ps)
        assert aux.method is AuxMethod.INTEGRATING_FACTOR
        i0 = aux.grid.origin_index
        assert aux.w[i0] == 0.0
        assert aux.v[i0] == 0.0

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
        aux = solve_auxiliary_if(f, freq, ps)
        assert np.all(aux.w == 0.0)
        assert np.max(np.abs(aux.v)) > 0.0
