import inspect

import numpy as np
import pytest

from shockbeta.auxiliary import AuxMethod, AuxiliarySolution
from shockbeta.beta import (
    BetaQuadrature,
    beta_convergence_study,
    compute_beta,
    solve_pair,
)
from shockbeta.errors import GridMismatch, TailNotResolved
from shockbeta.integrating_factor import solve_auxiliary_if
from shockbeta.model import (
    NeutralFrequency,
    custom_flux,
    neutral_zero,
    normalize_to_standing,
    rankine_hugoniot_speed,
    sine_transverse_flux,
)
from shockbeta.numerics import quad_simpson, quad_trapezoid
from shockbeta.profile import Grid, solve_profile

from conftest import exact_profile, exact_v


def oracle_integral(n_nodes=2**20 + 1, half_width=60.0):
    """High-precision Simpson quadrature of the closed-form integrand.

    For the exactly solvable case the integrand reduces to
    -4 ubar v + 2 ubar' with ubar = -tanh(x/2), v = -x sech^2(x/2).
    """
    x = np.linspace(-half_width, half_width, n_nodes)
    sech2 = 1.0 / np.cosh(x / 2.0) ** 2
    g = -4.0 * exact_profile(x) * exact_v(x) - sech2
    return quad_simpson(g, x[1] - x[0])


def zero_aux(grid, freq):
    z = np.zeros(grid.x.size)
    return AuxiliarySolution(grid=grid, v=z,
                             method=AuxMethod.INTEGRATING_FACTOR, freq=freq)


class TestStabilityIntegral:
    def test_exact_case_oracle_value(self, quad_flux, exact_freq, profile_L20):
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        val = compute_beta(quad_flux, profile_L20, aux).integral
        assert val.imag == pytest.approx(0.0, abs=1e-10)
        assert val.real == pytest.approx(-20.0, abs=1e-3)

    def test_zero_frequency_zero_integral(self, quad_flux, grid_L20, profile_L20):
        aux = zero_aux(grid_L20, NeutralFrequency(0.0, 0.0))
        assert compute_beta(quad_flux, profile_L20, aux).integral == 0.0

    def test_zero_correction_telescopes(self, quad_flux, grid_L20, profile_L20,
                                        exact_freq):
        # with y = 0 only 2 xi0^2 ubar' survives and integrates to 2 [u]
        aux = zero_aux(grid_L20, exact_freq)
        val = compute_beta(quad_flux, profile_L20, aux).integral
        assert val == pytest.approx(-4.0, abs=1e-6)

    def test_grid_mismatch(self, quad_flux, profile_L20, exact_freq):
        aux = zero_aux(Grid.make(10.0, 100), exact_freq)
        with pytest.raises(GridMismatch):
            compute_beta(quad_flux, profile_L20, aux).integral


class TestComputeBeta:
    def test_exact_case_beta_ten(self, quad_flux, exact_freq, profile_L20):
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        r = compute_beta(quad_flux, profile_L20, aux)
        assert r.beta.real == pytest.approx(10.0, abs=5e-3)
        assert abs(r.beta.imag) <= 1e-8
        assert r.sign_re_beta == 1
        assert r.delta_lambda == -2.0

    def test_beta_is_integral_over_jump(self, quad_flux, exact_freq, profile_L20):
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        r = compute_beta(quad_flux, profile_L20, aux)
        assert r.beta == r.integral / r.delta_lambda

    def test_zero_correction_beta_two(self, quad_flux, grid_L20, profile_L20,
                                      exact_freq):
        aux = zero_aux(grid_L20, exact_freq)
        r = compute_beta(quad_flux, profile_L20, aux)
        assert r.beta.real == pytest.approx(2.0, abs=1e-6)

    def test_sign_threshold_reports_zero(self, quad_flux, grid_L20, profile_L20):
        aux = zero_aux(grid_L20, NeutralFrequency(0.0, 0.0))
        r = compute_beta(quad_flux, profile_L20, aux)
        assert r.beta == 0.0
        assert r.sign_re_beta == 0

    def test_simpson_quadrature_agrees(self, quad_flux, exact_freq, profile_L20):
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        rt = compute_beta(quad_flux, profile_L20, aux, BetaQuadrature.TRAPEZOID)
        rs = compute_beta(quad_flux, profile_L20, aux, BetaQuadrature.SIMPSON)
        assert abs(rt.beta - rs.beta) <= 1e-6
        assert rt.diagnostics["quadrature_cross_difference"] <= 1e-5

    def test_integral_is_stability_integral(self, quad_flux, exact_freq,
                                            profile_L20):
        # the integral is each rule's quadrature of the integrand of the paper
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        factor = 1j * exact_freq.tau0 + 1j * exact_freq.xi0 * np.asarray(
            quad_flux.a2(profile_L20.ubar))
        g = 2.0 * factor * aux.y + 2.0 * exact_freq.xi0**2 * profile_L20.ubar_prime
        rule = {BetaQuadrature.TRAPEZOID: quad_trapezoid,
                BetaQuadrature.SIMPSON: quad_simpson}
        ints = {}
        for q in BetaQuadrature:
            ints[q] = complex(rule[q](g, profile_L20.grid.h))
            assert compute_beta(quad_flux, profile_L20, aux, q).integral == ints[q]
        cross = compute_beta(quad_flux, profile_L20, aux).diagnostics[
            "quadrature_cross_difference"]
        assert cross == abs(ints[BetaQuadrature.SIMPSON]
                            - ints[BetaQuadrature.TRAPEZOID])

    def test_no_transversality_parameter_anywhere(self):
        # the determinant's transversality factor cancels and never appears
        for fn in (compute_beta, beta_convergence_study):
            names = {p.lower() for p in inspect.signature(fn).parameters}
            assert not names & {"gamma", "transversality"}


class TestOracle:
    def test_high_precision_closed_form(self):
        val = oracle_integral()
        assert val == pytest.approx(-20.0, abs=1e-9)
        assert val / -2.0 == pytest.approx(10.0, abs=1e-9)

    def test_pipeline_agrees_with_oracle(self, quad_flux, exact_freq, profile_L20):
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        val = compute_beta(quad_flux, profile_L20, aux).integral
        assert abs(val.real - oracle_integral()) <= 1e-3


class TestSolvePair:
    def test_each_method_on_the_requested_grid(self, quad_flux, exact_cfg,
                                               exact_freq):
        for method in AuxMethod:
            profile, aux = solve_pair(exact_cfg, quad_flux, exact_freq, method,
                                      20.0, 1000, 1e-8, 1e-6, 1e-4)
            assert aux.method is method
            assert profile.grid.N == aux.grid.N == 1000
            assert np.max(np.abs(aux.v - exact_v(aux.grid.x))) <= 1e-4

    def test_gates_reach_both_methods(self, quad_flux, exact_cfg, exact_freq):
        # at L = 10 the correction tails (~2e-3) fail a 1e-4 decay gate
        for method in AuxMethod:
            with pytest.raises(TailNotResolved):
                solve_pair(exact_cfg, quad_flux, exact_freq, method,
                           10.0, 1000, 1e-8, 1e-3, 1e-4)
            solve_pair(exact_cfg, quad_flux, exact_freq, method,
                       10.0, 1000, 1e-8, 1e-3, None)


class TestConvergenceStudy:
    def test_single_half_width(self, quad_flux, exact_cfg, exact_freq):
        study = beta_convergence_study(
            exact_cfg, quad_flux, exact_freq, [20.0],
            methods=[AuxMethod.INTEGRATING_FACTOR], N=1000,
        )
        assert len(study.results) == 1
        assert not study.failures
        assert study.sign_stable()

    def test_unsolvable_entry_marked_others_intact(self, quad_flux, exact_cfg,
                                                   exact_freq):
        study = beta_convergence_study(
            exact_cfg, quad_flux, exact_freq, [1.0, 20.0],
            methods=[AuxMethod.INTEGRATING_FACTOR], N=1000,
        )
        key_bad = (AuxMethod.INTEGRATING_FACTOR, 1.0)
        key_ok = (AuxMethod.INTEGRATING_FACTOR, 20.0)
        assert key_bad in study.failures
        assert "TailNotResolved" in study.failures[key_bad]
        assert key_ok in study.results
        assert not study.sign_stable()

    def test_row_layout(self, quad_flux, exact_cfg, exact_freq):
        study = beta_convergence_study(
            exact_cfg, quad_flux, exact_freq, [10.0, 20.0], N=1000,
        )
        row = study.row(AuxMethod.COUPLED)
        assert len(row) == 2
        assert all(r is not None for r in row)


def _betas(f, u_minus, xi0, L=20.0, N=4000):
    """beta on both routes, by method, for the shock (u_minus, -1)."""
    s = rankine_hugoniot_speed(f, u_minus, -1.0)
    cfg = normalize_to_standing(f, u_minus, -1.0, s)
    study = beta_convergence_study(cfg, f, neutral_zero(cfg, f, xi0), [L], N=N)
    assert not study.failures
    return {m: study.results[(m, L)].beta for m in study.methods}


class TestMetamorphic:
    """Identities of beta that need no oracle, on both routes."""

    @pytest.mark.parametrize("f1", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.5, 0.1)],
                             ids=["quadratic", "cubic"])
    def test_affine_change_of_f2_leaves_beta(self, f1):
        # f2 -> f2 + a u + b moves tau0 by -a xi0, which cancels a's share
        # of the forcing and of the integrand factor
        base = _betas(custom_flux(f1, (0.0, 0.0, 1.0)), 1.3, 1.0)
        moved = _betas(custom_flux(f1, (-0.4, 0.7, 1.0)), 1.3, 1.0)
        for m, beta in base.items():
            assert abs(moved[m] - beta) <= 1e-13 * abs(beta)

    def test_doubling_xi0_quadruples_beta(self):
        # tau0, the forcing and v are linear in xi0, the integrand quadratic
        f = sine_transverse_flux()
        base = _betas(f, 1.2, 1.0)
        doubled = _betas(f, 1.2, 2.0)
        for m, beta in base.items():
            assert abs(doubled[m] - 4.0 * beta) <= 1e-12 * abs(4.0 * beta)
