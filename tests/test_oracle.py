"""An independent oracle for the truncated beta of a quadratic f1.

Write P for the profile field (ubar' = P(ubar)), F for the forcing of v and
R = F / P, smooth on [u+, u-] because F vanishes at both end states; R is
taken as 0 where P(ubar) is 0 in floating point (a saturated tanh), as the
integrating-factor route takes it.  With
C(x) = int_0^x R, the correction is v = ubar' C, and the beta integrand
2 xi0^2 ubar' - 2 F'(ubar) v integrates by parts, exactly on [-L, L], to

    beta_L = [2 xi0^2 (ubar(L) - ubar(-L)) - 2 (F C)(L) + 2 (F C)(-L)
              + 2 int_{-L}^{L} F R dx] / (u+ - u-).

For a quadratic f1, ubar is the closed-form tanh profile, and every integral
is a composite 32-point Gauss-Legendre rule on equal panels in x.  The
oracle shares no grid, solver or quadrature with either route.
"""

import math

import numpy as np
import pytest

from shockbeta.auxiliary import AuxMethod
from shockbeta.beta import beta_convergence_study, compute_beta, solve_pair
from shockbeta.coupled import continuation_scan
from shockbeta.model import (
    burgers_flux,
    forcing,
    quadratic_transverse_flux,
    sine_transverse_flux,
    standing_shock,
)
from shockbeta.profile import _tanh_profile

SINE_POINTS = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def _gauss(g, a, b, panels):
    """Composite 32-point Gauss-Legendre rule of g over [a, b] (signed)."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    x = edges[:-1, None] + half[:, None] * (1.0 + _NODES)
    return float(half @ (g(x) @ _WEIGHTS))


def oracle_beta(cfg, f, freq, L, c_panels=16, fr_panels=64):
    """beta_L by parts: ``c_panels`` for each C(+-L), ``fr_panels`` for int F R."""
    def ubar(x):
        return _tanh_profile(cfg, np.atleast_1d(np.asarray(x, dtype=float)))

    def F(x):
        return forcing(f, freq, cfg.u_minus, ubar(x))

    def R(x):
        P = cfg.profile_field(ubar(x))
        return np.divide(F(x), P, out=np.zeros_like(P), where=P != 0.0)

    ends = 0.0
    for side in (1.0, -1.0):
        C = _gauss(R, 0.0, side * L, c_panels)
        ends += side * (2.0 * freq.xi0**2 * ubar(side * L)[0] - 2.0 * F(side * L)[0] * C)
    FR = _gauss(lambda x: F(x) * R(x), -L, L, fr_panels)
    return (ends + 2.0 * FR) / (cfg.u_plus - cfg.u_minus)


def _beta(f, cfg, freq, method, L=20.0, N=4000):
    profile, aux, _ = solve_pair(cfg, f, freq, method, L, N)
    return compute_beta(f, profile, aux).beta


@pytest.fixture(scope="module")
def sine_scan():
    f = sine_transverse_flux()
    cfg0, freq0 = standing_shock(f, SINE_POINTS[0], -1.0, 1.0)
    return f, continuation_scan(cfg0, f, 1.0, SINE_POINTS, 20.0, 4000, freq0=freq0)


@pytest.mark.parametrize("L", [10.0, 20.0, 30.0, 40.0])
def test_oracle_matches_the_closed_form_of_the_exact_case(L):
    f = quadratic_transverse_flux()
    cfg, freq = standing_shock(f, 1.0, -1.0, 1.0)
    exact = 10.0 * math.tanh(L / 2.0) - 4.0 * L / math.cosh(L / 2.0) ** 2
    assert abs(oracle_beta(cfg, f, freq, L) / exact - 1.0) <= 4e-15


def test_oracle_is_converged_in_its_panels(sine_scan):
    f, points = sine_scan
    for pt in points:
        coarse = oracle_beta(pt.config, f, pt.freq, 20.0)
        fine = oracle_beta(pt.config, f, pt.freq, 20.0, c_panels=32, fr_panels=128)
        assert abs(coarse / fine - 1.0) <= 2e-15, (pt.config.u_minus, coarse, fine)


def test_sine_points_of_both_routes_match_the_oracle(sine_scan):
    # the coupled route is sixth-order collocation on its own mesh, its beta
    # the end-corrected trapezoid on the N = 4000 output grid; the if route's
    # beta is taken by parts, so the error of its v inside the domain does
    # not enter
    f, points = sine_scan
    for pt in points:
        oracle = oracle_beta(pt.config, f, pt.freq, 20.0)
        coupled = compute_beta(f, pt.profile, pt.aux).beta
        by_if = _beta(f, pt.config, pt.freq, AuxMethod.INTEGRATING_FACTOR)
        assert abs(coupled / oracle - 1.0) <= 1e-12, (pt.config.u_minus, coupled, oracle)
        assert abs(by_if / oracle - 1.0) <= 1e-12, (pt.config.u_minus, by_if, oracle)


@pytest.mark.parametrize("L", [10.0, 20.0, 30.0])
def test_exact_case_of_both_routes_matches_the_oracle(L):
    # the table of configs/exact_case.cfg: at L = 10 the integrand has not
    # decayed, and the plain trapezoid's end term read 1.4e-9 there
    f = quadratic_transverse_flux()
    cfg, freq = standing_shock(f, 1.0, -1.0, 1.0)
    oracle = oracle_beta(cfg, f, freq, L)
    study = beta_convergence_study(cfg, f, freq, [L])
    assert not study.failures
    for method in AuxMethod:
        beta = study.results[(method, L)].beta
        assert abs(beta / oracle - 1.0) <= 1e-12, (method, beta, oracle)


def test_moving_burgers_shock_matches_the_oracle():
    f = burgers_flux()
    cfg, freq = standing_shock(f, 1.5, -1.0, 0.7)
    oracle = oracle_beta(cfg, f, freq, 20.0)
    for method in (AuxMethod.COUPLED, AuxMethod.INTEGRATING_FACTOR):
        beta = _beta(f, cfg, freq, method)
        assert abs(beta / oracle - 1.0) <= 1e-11, (method, beta, oracle)
