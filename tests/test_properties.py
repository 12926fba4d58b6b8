"""Randomized invariant checks over admissible shock configurations."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shockbeta.beta import compute_beta
from shockbeta.coupled import continuation_scan, solve_coupled
from shockbeta.errors import ValidationError
from shockbeta.integrating_factor import solve_auxiliary_if, solve_v_if
from shockbeta.model import (
    NeutralFrequency,
    burgers_flux,
    forcing,
    lopatinskii,
    neutral_zero,
    normalize_to_standing,
    quadratic_transverse_flux,
    rankine_hugoniot_speed,
    sine_transverse_flux,
)
from shockbeta.profile import Grid, check_resolution, solve_profile

COMMON = settings(max_examples=100, deadline=None, derandomize=True)

u_minus_st = st.floats(0.3, 2.5)
u_plus_st = st.floats(-2.5, -0.3)
xi_st = st.floats(-3.0, 3.0)


def transverse_flux(choice: int, freq: float):
    if choice == 0:
        return quadratic_transverse_flux()
    if choice == 1:
        return sine_transverse_flux(freq)
    return burgers_flux()


def admissible_config(f, um, up):
    s = rankine_hugoniot_speed(f, um, up)
    return normalize_to_standing(f, um, up, s)


@COMMON
@given(um=u_minus_st, up=u_plus_st, choice=st.integers(0, 2),
       freq=st.floats(0.5, 12.0), re=st.floats(0.01, 5.0),
       im=st.floats(-5.0, 5.0), xi=xi_st, rho=st.floats(0.01, 10.0))
def test_determinant_degree_one_homogeneity(um, up, choice, freq, re, im, xi, rho):
    f = transverse_flux(choice, freq)
    cfg = admissible_config(f, um, up)
    lam = complex(re, im)
    lhs = lopatinskii(cfg, f, rho * lam, rho * xi)
    rhs = rho * lopatinskii(cfg, f, lam, xi)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@COMMON
@given(um=u_minus_st, up=u_plus_st, choice=st.integers(0, 2),
       freq=st.floats(0.5, 12.0), re=st.floats(0.01, 5.0),
       im=st.floats(-5.0, 5.0), xi=xi_st)
def test_no_unstable_determinant_zeros(um, up, choice, freq, re, im, xi):
    f = transverse_flux(choice, freq)
    cfg = admissible_config(f, um, up)
    val = lopatinskii(cfg, f, complex(re, im), xi)
    # the real part alone is re * [u], bounded away from zero
    assert abs(val) >= re * abs(cfg.u_jump) * (1.0 - 1e-12)
    assert val != 0


@COMMON
@given(um=u_minus_st, up=u_plus_st, choice=st.integers(0, 2),
       freq=st.floats(0.5, 12.0), xi=xi_st)
def test_neutral_zero_identity(um, up, choice, freq, xi):
    f = transverse_flux(choice, freq)
    cfg = admissible_config(f, um, up)
    nf = neutral_zero(cfg, f, xi)  # validates the identity internally
    val = lopatinskii(cfg, f, 1j * nf.tau0, nf.xi0)
    scale = max(1.0, abs(cfg.u_jump) * (1.0 + abs(nf.tau0) + abs(nf.xi0)))
    assert abs(val) <= 1e-14 * scale


@pytest.fixture(scope="module")
def linearity_profile(exact_cfg):
    return solve_profile(exact_cfg, Grid.make(20.0, 512))


@pytest.mark.filterwarnings("ignore::shockbeta.errors.QuadratureDegraded")
@COMMON
@given(xi=st.floats(0.05, 3.0), choice=st.integers(0, 1),
       freq=st.floats(0.5, 12.0))
def test_correction_linear_in_forcing(linearity_profile, xi, choice, freq):
    # doubling the transverse wavenumber doubles the forcing and v exactly
    f = transverse_flux(choice, freq)
    ps = linearity_profile
    F1 = forcing(f, NeutralFrequency(0.0, xi), ps.config.u_minus, ps.ubar)
    F2 = forcing(f, NeutralFrequency(0.0, 2.0 * xi), ps.config.u_minus, ps.ubar)
    assert np.array_equal(F2, 2.0 * F1)
    v1 = solve_v_if(ps, F1)
    v2 = solve_v_if(ps, F2)
    assert np.array_equal(v2, 2.0 * v1)


@COMMON
@given(um=u_minus_st, up=u_plus_st)
def test_monotone_profile_invariant(um, up):
    f = burgers_flux()
    cfg = admissible_config(f, um, up)
    rate = 0.5 * (um - up)
    L = min(50.0, max(8.0, 16.0 / rate))
    ps = solve_profile(cfg, Grid.make(L, 400))
    assert np.all(np.diff(ps.ubar) < 0)
    assert np.all(ps.ubar_prime <= 0.0)
    mid = ps.ubar[ps.grid.origin_index]
    assert mid == pytest.approx(cfg.u_mid, abs=1e-14)


@COMMON
@given(xi=st.floats(0.05, 3.0))
def test_beta_never_references_transversality(linearity_profile, quad_flux, xi):
    names = {p.lower() for p in inspect.signature(compute_beta).parameters}
    assert not names & {"gamma", "transversality"}
    freq = NeutralFrequency(0.0, xi)
    aux = solve_auxiliary_if(quad_flux, freq, linearity_profile, decay_tol=math.inf)
    r = compute_beta(quad_flux, linearity_profile, aux)
    assert r.beta == r.integral / r.delta_lambda


def _admitted(choice, u_minus_values, L, N):
    f = transverse_flux(choice, 4.0 * np.pi)
    try:
        for um in u_minus_values:
            check_resolution(admissible_config(f, um, -1.0), L, N)
    except ValidationError:
        return False
    return True


def _check_step_equals_cold_solve(choice, um, um_next, L, N):
    f = transverse_flux(choice, 4.0 * np.pi)
    warm = continuation_scan(admissible_config(f, um, -1.0), f, 1.0,
                             [um, um_next], L, N)[1]
    cold = solve_coupled(warm.config, f, warm.freq, L, N)
    for key in ("mesh_size", "mesh_sweeps"):
        assert warm.aux.diagnostics[key] == cold.aux.diagnostics[key]
    beta_warm = compute_beta(f, warm.profile, warm.aux).beta
    beta_cold = compute_beta(f, cold.profile, cold.aux).beta
    assert abs(beta_warm - beta_cold) <= 1e-14 * abs(beta_cold)


# both betas come from the same grid: its quadrature error is not under test
@pytest.mark.filterwarnings("ignore::shockbeta.errors.QuadratureDegraded")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(choice=st.integers(0, 2), um=st.floats(0.8, 1.6), um_next=st.floats(0.8, 1.6),
       L=st.sampled_from([20.0, 30.0]), N=st.sampled_from([100, 200, 1000, 4000]))
def test_continuation_step_equals_its_cold_solve(choice, um, um_next, L, N):
    # a step up or down in u- ends where the cold solve of its point ends; a
    # repeated left state is already solved and keeps its converged mesh
    assume(um != um_next and _admitted(choice, (um, um_next), L, N))
    _check_step_equals_cold_solve(choice, um, um_next, L, N)


def test_quadratic_step_from_1_to_1_25_equals_its_cold_solve():
    # one sweep on the starting mesh: a Newton stop left unsettled put this
    # beta 2.1e-11 from the cold solve's
    _check_step_equals_cold_solve(0, 1.0, 1.25, 20.0, 100)
