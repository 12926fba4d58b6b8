"""Randomized invariant checks over admissible shock configurations."""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shockbeta.beta import compute_beta
from shockbeta.coupled import continuation_scan, solve_coupled, tanh_guess
from shockbeta.errors import ValidationError
from shockbeta.integrating_factor import solve_auxiliary_if, solve_v_if
from shockbeta.model import (
    NeutralFrequency,
    burgers_flux,
    custom_flux,
    forcing,
    lopatinskii,
    neutral_zero,
    normalize_to_standing,
    quadratic_transverse_flux,
    rankine_hugoniot_speed,
    sine_transverse_flux,
    standing_shock,
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
    step = continuation_scan(admissible_config(f, um, -1.0), f, 1.0,
                             [um, um_next], L, N)[1]
    cold = solve_coupled(step.config, f, step.freq, L, N)
    for key in ("mesh_size", "mesh_sweeps"):
        assert step.aux.diagnostics[key] == cold.aux.diagnostics[key]
    beta_step = compute_beta(f, step.profile, step.aux).beta
    beta_cold = compute_beta(f, cold.profile, cold.aux).beta
    # both solves start on the same mesh and stop Newton from different
    # guesses; on the sine's graded mesh, with no second sweep to erase that
    # difference, it reaches 2.0e-14 over these examples (u- 1.43 -> 1.5)
    bound = 3e-14 if choice == 1 else 1e-14
    assert abs(beta_step - beta_cold) <= bound * abs(beta_cold)


# both betas come from the same grid: its quadrature error is not under test
@pytest.mark.filterwarnings("ignore::shockbeta.errors.QuadratureDegraded")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(choice=st.integers(0, 2), um=st.floats(0.8, 1.6), um_next=st.floats(0.8, 1.6),
       L=st.sampled_from([20.0, 30.0]), N=st.sampled_from([100, 200, 1000, 4000]))
def test_continuation_step_equals_its_cold_solve(choice, um, um_next, L, N):
    # a scan point after a step up or down in u-, solved from the tanh
    # guess, ends where the solve from the outward integration ends
    # (a repeated left state is already solved, so it is left out)
    assume(um != um_next and _admitted(choice, (um, um_next), L, N))
    _check_step_equals_cold_solve(choice, um, um_next, L, N)


def test_quadratic_step_from_1_to_1_25_equals_its_cold_solve():
    # one sweep on the starting mesh: the scan point ends within 1e-14 of
    # the beta solved from the outward integration
    _check_step_equals_cold_solve(0, 1.0, 1.25, 20.0, 100)


# the built-in fluxes, the sine at 5 to 80, custom f1 of degree 3 and 4,
# and a steep quadratic f1 with a cubic f2; each drawn in turn, since one
# derandomized draw of all six leaves some out
SWEEP_FLUXES = {
    "burgers": st.builds(burgers_flux),
    "quadratic_transverse": st.builds(quadratic_transverse_flux),
    "sine": st.builds(sine_transverse_flux, st.floats(5.0, 80.0)),
    "cubic_f1": st.builds(lambda a, c3: custom_flux((0.0, 0.0, a, c3), (0.0, 0.0, 1.0)),
                          st.floats(0.5, 2.0), st.floats(-0.3, 0.3)),
    "quartic_f1": st.builds(
        lambda a, c4: custom_flux((0.0, 0.0, a, 0.0, c4), (0.0, 0.0, 1.0)),
        st.floats(0.5, 2.0), st.floats(-0.3, 0.3)),
    "steep_f1_cubic_f2": st.builds(
        lambda a, c3: custom_flux((0.0, 0.0, a), (0.0, 0.0, 1.0, c3)),
        st.floats(2.0, 25.0), st.floats(-0.3, 0.3)),
}


@pytest.mark.parametrize("family", SWEEP_FLUXES)
def test_admissible_coupled_solves_converge(family):
    # every admissible shock whose tails the domain resolves converges from
    # either guess, and warns of nothing: 7 draws of each of the six
    # families, 42 in all, with L from the slower end rate
    @settings(max_examples=7, deadline=None, derandomize=True)
    @given(f=SWEEP_FLUXES[family], up=st.floats(-2.0, 0.5), jump=st.floats(0.2, 3.0),
           xi0=st.sampled_from([0.3, 1.0, 3.0]))
    def sweep(f, up, jump, xi0):
        try:
            cfg, nf = standing_shock(f, up + jump, up, xi0)
        except ValidationError:
            assume(False)
        slower = min(abs(cfg.a1_shifted(u)) for u in (cfg.u_minus, cfg.u_plus))
        L = math.ceil(40.0 / slower)
        assume(L <= 400)
        N = max(4000, 2 * math.ceil(2.0 * L * cfg.layer_rate))
        check_resolution(cfg, L, N)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for guess in (None, tanh_guess):
                solve_coupled(cfg, f, nf, L, N, guess=guess)

    sweep()
