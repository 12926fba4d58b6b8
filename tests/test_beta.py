import inspect

import numpy as np
import pytest

from shockbeta.auxiliary import AuxMethod, AuxiliarySolution
from shockbeta.beta import (
    BetaQuadrature,
    beta_convergence_study,
    compute_beta,
    solve_pair,
    stability_integral,
)
from shockbeta.errors import GridMismatch, TailNotResolved
from shockbeta.integrating_factor import solve_auxiliary_if
from shockbeta.model import NeutralFrequency
from shockbeta.numerics import quad_simpson
from shockbeta.profile import Grid, exact_burgers_profile, solve_profile

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
    return AuxiliarySolution(grid=grid, w=z, v=z.copy(),
                             method=AuxMethod.INTEGRATING_FACTOR, freq=freq)


class TestStabilityIntegral:
    def test_exact_case_oracle_value(self, quad_flux, exact_freq, profile_L20):
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        val = stability_integral(quad_flux, profile_L20, aux)
        assert val.imag == pytest.approx(0.0, abs=1e-10)
        assert val.real == pytest.approx(-20.0, abs=1e-3)

    def test_zero_frequency_zero_integral(self, quad_flux, grid_L20, profile_L20):
        aux = zero_aux(grid_L20, NeutralFrequency(0.0, 0.0))
        assert stability_integral(quad_flux, profile_L20, aux) == 0.0

    def test_zero_correction_telescopes(self, quad_flux, grid_L20, profile_L20,
                                        exact_freq):
        # with y = 0 only 2 xi0^2 ubar' survives and integrates to 2 [u]
        aux = zero_aux(grid_L20, exact_freq)
        val = stability_integral(quad_flux, profile_L20, aux)
        assert val == pytest.approx(-4.0, abs=1e-6)

    def test_grid_mismatch(self, quad_flux, profile_L20, exact_freq):
        aux = zero_aux(Grid.make(10.0, 100), exact_freq)
        with pytest.raises(GridMismatch):
            stability_integral(quad_flux, profile_L20, aux)


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
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        ints = {}
        for q in BetaQuadrature:
            ints[q] = stability_integral(quad_flux, profile_L20, aux, q)
            assert compute_beta(quad_flux, profile_L20, aux, q).integral == ints[q]
        cross = compute_beta(quad_flux, profile_L20, aux).diagnostics[
            "quadrature_cross_difference"]
        assert cross == abs(ints[BetaQuadrature.SIMPSON]
                            - ints[BetaQuadrature.TRAPEZOID])

    def test_no_transversality_parameter_anywhere(self):
        # the determinant's transversality factor cancels and never appears
        for fn in (compute_beta, stability_integral, beta_convergence_study):
            names = {p.lower() for p in inspect.signature(fn).parameters}
            assert not names & {"gamma", "transversality"}


class TestOracle:
    def test_high_precision_closed_form(self):
        val = oracle_integral()
        assert val == pytest.approx(-20.0, abs=1e-9)
        assert val / -2.0 == pytest.approx(10.0, abs=1e-9)

    def test_pipeline_agrees_with_oracle(self, quad_flux, exact_freq, profile_L20):
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        val = stability_integral(quad_flux, profile_L20, aux)
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
