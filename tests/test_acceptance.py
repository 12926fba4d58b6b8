"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Shared expensive solves live in module-scoped fixtures; timed
criteria measure their own fresh solves.
"""

import inspect
import time

import numpy as np
import pytest

from shockbeta.auxiliary import AuxMethod
from shockbeta.beta import beta_convergence_study, compute_beta
from shockbeta.coupled import continuation_scan, solve_coupled
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
from shockbeta.numerics import (
    BvpProblem,
    IvpProblem,
    bvp_solve,
    ivp_solve,
    quad_simpson,
    quad_trapezoid,
)
from shockbeta.profile import Grid, solve_profile

from conftest import exact_profile, exact_v


def _ok(num, label):
    print(f"ACCEPTANCE {num:>2} {label}: PASS")


@pytest.fixture(scope="module")
def study(exact_cfg, quad_flux, exact_freq):
    return beta_convergence_study(
        exact_cfg, quad_flux, exact_freq, [10.0, 20.0, 30.0], N=4000
    )


@pytest.fixture(scope="module")
def sine_scan_timed():
    f = sine_transverse_flux()
    cfg0 = normalize_to_standing(burgers_flux(), 1.0, -1.0, 0.0)
    t0 = time.perf_counter()
    points = continuation_scan(
        cfg0, f, 1.0, [1.0, 1.1, 1.2, 1.3, 1.4, 1.5], 20.0, 4000
    )
    return points, time.perf_counter() - t0, f


def test_criterion_1_exact_profile(exact_cfg):
    grid = Grid.make(20.0, 4000)
    t0 = time.perf_counter()
    ps = solve_profile(exact_cfg, grid)
    elapsed = time.perf_counter() - t0
    err = np.max(np.abs(ps.ubar - exact_profile(grid.x)))
    assert err <= 1e-8
    assert elapsed < 1.0
    _ok(1, f"profile max-norm {err:.2e} in {elapsed:.3f}s")


def test_criterion_2_integrating_factor_exact_correction(quad_flux, exact_cfg,
                                                         exact_freq):
    # reference resolution h = 20/256 on [-20, 20]; one refinement halves h
    errs = {}
    for n in (512, 1024):
        grid = Grid.make(20.0, n)
        ps = solve_profile(exact_cfg, grid)
        aux = solve_auxiliary_if(quad_flux, exact_freq, ps)
        errs[n] = float(np.sqrt(np.sum((aux.v - exact_v(grid.x)) ** 2)))
    assert errs[512] <= 5e-4
    assert errs[1024] <= 1e-5
    _ok(2, f"IF correction 2-norm {errs[512]:.2e} -> {errs[1024]:.2e}")


def test_criterion_3_coupled_exact_correction(exact_cfg, quad_flux, exact_freq):
    t0 = time.perf_counter()
    res = solve_coupled(exact_cfg, quad_flux, exact_freq, 20.0, 4000, tol=1e-8)
    elapsed = time.perf_counter() - t0
    x = res.profile.grid.x
    eu = float(np.sqrt(np.sum((res.profile.ubar - exact_profile(x)) ** 2)))
    ev = float(np.sqrt(np.sum((res.aux.v - exact_v(x)) ** 2)))
    assert eu <= 1e-6
    assert ev <= 5e-6
    assert elapsed < 10.0
    _ok(3, f"coupled 2-norms u {eu:.2e}, v {ev:.2e} in {elapsed:.2f}s")


def test_criterion_4_beta_table(study):
    assert not study.failures
    assert len(study.results) == 6  # 2 methods x 3 half-widths
    for method in (AuxMethod.INTEGRATING_FACTOR, AuxMethod.COUPLED):
        for L, target, tol in ((10.0, 9.9918, 2e-2), (20.0, 10.0, 5e-3),
                               (30.0, 10.0, 5e-3)):
            r = study.results[(method, L)]
            assert abs(r.beta.real - target) <= tol, (method, L)
            assert abs(r.beta.imag) <= 1e-8
            assert r.sign_re_beta == 1
    assert study.sign_stable()
    vals = {
        (m.value, L): round(r.beta.real, 4) for (m, L), r in study.results.items()
    }
    _ok(4, f"beta table {vals}")


def test_criterion_5_analytic_oracle(study):
    n = 2**20 + 1  # over one million Simpson nodes on the closed forms
    x = np.linspace(-60.0, 60.0, n)
    g = -4.0 * exact_profile(x) * exact_v(x) - 1.0 / np.cosh(x / 2.0) ** 2
    oracle_I = quad_simpson(g, x[1] - x[0])
    oracle_beta = oracle_I / -2.0
    assert abs(oracle_I - (-20.0)) <= 1e-9
    assert abs(oracle_beta - 10.0) <= 1e-9
    for method in (AuxMethod.INTEGRATING_FACTOR, AuxMethod.COUPLED):
        r = study.results[(method, 20.0)]
        assert abs(r.beta.real - oracle_beta) <= 1e-4
    _ok(5, f"oracle I = {oracle_I:.12f}, beta = {oracle_beta:.12f}")


def test_criterion_6_continuation_scan(sine_scan_timed):
    points, elapsed, _ = sine_scan_timed
    assert len(points) == 6
    assert elapsed < 60.0
    for pt in points[1:]:
        assert pt.bvp.newton_iters <= 10
    for pt in points:
        assert pt.aux.tail_magnitudes() <= 1e-4
        i0 = pt.aux.grid.origin_index
        assert abs(pt.aux.v[i0]) <= 1e-9
        assert np.all(np.diff(pt.profile.ubar) < 0)
    iters = [pt.bvp.newton_iters for pt in points]
    _ok(6, f"six points in {elapsed:.1f}s, newton iters {iters}")


def test_criterion_7_method_cross_agreement(study, sine_scan_timed):
    gaps = []
    b_if = study.results[(AuxMethod.INTEGRATING_FACTOR, 20.0)].beta
    b_auto = study.results[(AuxMethod.COUPLED, 20.0)].beta
    gaps.append(abs(b_auto - b_if))
    points, _, flux = sine_scan_timed
    for pt in points:
        ps = solve_profile(pt.config, pt.profile.grid)
        aux = solve_auxiliary_if(flux, pt.freq, ps)
        r_if = compute_beta(flux, ps, aux)
        r_auto = compute_beta(flux, pt.profile, pt.aux)
        gaps.append(abs(r_auto.beta - r_if.beta))
    assert max(gaps) <= 2e-4
    _ok(7, f"largest |beta_auto - beta_if| = {max(gaps):.2e} over 7 cases")


def test_criterion_8_kernel_convergence_orders():
    # IVP on y' = y, fixed steps through max_step
    errs = []
    for h in (0.2, 0.1, 0.05):
        p = IvpProblem(rhs=lambda t, y: y, t_span=(0.0, 1.0), y0=np.array([1.0]),
                       rtol=1.0, atol=1.0, max_step=h)
        errs.append(abs(ivp_solve(p).y_final[0] - np.e))
    ivp_orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(ivp_orders >= 4.0)

    def rule_orders(rule):
        es = []
        for n in (8, 16, 32, 64):
            xs = np.linspace(0.0, 1.0, n + 1)
            es.append(abs(rule(np.exp(xs), xs[1] - xs[0]) - (np.e - 1.0)))
        es = np.array(es)
        return np.log2(es[:-1] / es[1:])

    simpson_orders = rule_orders(quad_simpson)
    trapezoid_orders = rule_orders(quad_trapezoid)
    assert np.all(simpson_orders >= 3.7)
    assert np.all(trapezoid_orders >= 1.8)

    # collocation on y0' = -y0**2, y1' = y0 with y(0) = (1, 0), whose solution
    # is (1/(1+x), log(1+x)): least-squares slope of the nodal error over a
    # refinement ladder whose errors stay above rounding (sixth order; the
    # measured slope is 5.95)
    def rhs(x, Y):
        return np.vstack([-Y[0] ** 2, Y[0]])

    def jac(x, Y):
        # the diagonal (-2 y0, 0) and the coupling d rhs_1 / d y0 = 1
        return np.vstack([-2.0 * Y[0], np.zeros_like(Y[0])]), ((1, 0, np.ones_like(Y[0])),)

    # both conditions at x = 0: y(0) = (1, 0), and the guess holds that state
    y0 = [1.0, 0.0]

    def guess(x):
        return np.vstack([np.ones_like(x), np.zeros_like(x)])

    bvp_errs = []
    sizes = np.arange(5, 17)
    for n in sizes:
        mesh = np.linspace(0.0, 1.0, n)
        prob = BvpProblem(rhs=rhs, jac=jac, y0=y0, initial_mesh=mesh,
                          initial_guess=guess, tol=10.0)
        sol = bvp_solve(prob)
        exact = np.vstack([1.0 / (1.0 + sol.mesh), np.log1p(sol.mesh)])
        bvp_errs.append(np.max(np.abs(sol.y - exact)))
    hs = 1.0 / (sizes - 1)
    bvp_slope = float(np.polyfit(np.log(hs), np.log(bvp_errs), 1)[0])
    assert bvp_slope >= 5.8

    _ok(8, f"orders ivp {ivp_orders.min():.2f}, simpson {simpson_orders.min():.2f}, "
           f"trapezoid {trapezoid_orders.min():.2f}, bvp {bvp_slope:.3f}")


@pytest.mark.filterwarnings("ignore::shockbeta.errors.QuadratureDegraded")
def test_criterion_9_randomized_property_suite(quad_flux, exact_cfg):
    rng = np.random.default_rng(42)
    lin_profile = solve_profile(exact_cfg, Grid.make(20.0, 512))

    names = {p.lower() for p in inspect.signature(compute_beta).parameters}
    assert not names & {"gamma", "transversality"}

    for k in range(100):
        um = float(rng.uniform(0.3, 2.5))
        up = float(rng.uniform(-2.5, -0.3))
        choice = int(rng.integers(0, 3))
        if choice == 0:
            f = quadratic_transverse_flux()
        elif choice == 1:
            f = sine_transverse_flux(float(rng.uniform(0.5, 12.0)))
        else:
            f = burgers_flux()
        s = rankine_hugoniot_speed(f, um, up)
        cfg = normalize_to_standing(f, um, up, s)

        # determinant homogeneity
        lam = complex(rng.uniform(0.01, 5.0), rng.uniform(-5.0, 5.0))
        xi = float(rng.uniform(-3.0, 3.0))
        rho = float(rng.uniform(0.01, 10.0))
        lhs = lopatinskii(cfg, f, rho * lam, rho * xi)
        rhs_ = rho * lopatinskii(cfg, f, lam, xi)
        assert abs(lhs - rhs_) <= 1e-12 * (1.0 + abs(rhs_))

        # no unstable zeros
        assert abs(lopatinskii(cfg, f, lam, xi)) > 0.0

        # neutral-zero identity
        nf = neutral_zero(cfg, f, xi)
        scale = max(1.0, abs(cfg.u_jump) * (1.0 + abs(nf.tau0) + abs(nf.xi0)))
        assert abs(lopatinskii(cfg, f, 1j * nf.tau0, nf.xi0)) <= 1e-14 * scale

        # correction linearity in the forcing
        xi_lin = float(rng.uniform(0.05, 3.0))
        lin_freq = NeutralFrequency(0.0, xi_lin)
        F1 = forcing(quad_flux, lin_freq, lin_profile.config.u_minus,
                     lin_profile.ubar)
        v1 = solve_v_if(lin_profile, F1)
        v2 = solve_v_if(lin_profile, 2.0 * F1)
        assert np.array_equal(v2, 2.0 * v1)

        # the coefficient is exactly the integral over the state jump
        from shockbeta.auxiliary import AuxiliarySolution

        aux = AuxiliarySolution(
            grid=lin_profile.grid, v=v1,
            method=AuxMethod.INTEGRATING_FACTOR, freq=lin_freq,
        )
        r = compute_beta(quad_flux, lin_profile, aux)
        assert r.beta == r.integral / r.delta_lambda

        # monotone profile
        rate = 0.5 * (um - up)
        L = min(50.0, max(8.0, 16.0 / rate))
        ps = solve_profile(cfg, Grid.make(L, 400))
        assert np.all(np.diff(ps.ubar) < 0)

    _ok(9, "randomized invariants over 100 admissible configurations")
