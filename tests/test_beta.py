import inspect
import math

import numpy as np
import pytest

from shockbeta import serialize
from shockbeta.auxiliary import AuxMethod, AuxiliarySolution
import shockbeta.beta
import shockbeta.coupled
from shockbeta.beta import (
    STUDY_DECAY_TOL,
    STUDY_TAIL_TOL,
    BetaQuadrature,
    beta_convergence_study,
    compute_beta,
    solve_pair,
)
from shockbeta.coupled import initial_guess, solve_coupled, tanh_guess
from shockbeta.errors import (
    GridMismatch, MeshLimitExceeded, TailNotResolved, ValidationError,
)
from shockbeta.integrating_factor import solve_auxiliary_if
from shockbeta.model import (
    NeutralFrequency,
    burgers_flux,
    custom_flux,
    forcing,
    neutral_zero,
    quadratic_transverse_flux,
    sine_transverse_flux,
    standing_shock,
)
from shockbeta.numerics import quad_gregory, quad_simpson
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
    # the coupled route integrates the paper form, where v enters whole; the
    # if route's beta by parts holds for the if route's own v only
    z = np.zeros(grid.x.size)
    return AuxiliarySolution(grid=grid, v=z, method=AuxMethod.COUPLED, freq=freq)


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

    def test_beta_and_integral_are_floats(self, quad_flux, exact_freq,
                                          profile_L20, coupled_L20):
        for profile, aux in ((profile_L20, solve_auxiliary_if(
                quad_flux, exact_freq, profile_L20)),
                             (coupled_L20.profile, coupled_L20.aux)):
            for q in BetaQuadrature:
                r = compute_beta(quad_flux, profile, aux, q)
                assert type(r.beta) is float
                assert type(r.integral) is float

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

    def test_sign_threshold_scales_with_xi0_squared(self, quad_flux, exact_cfg):
        # beta = 10 xi0^2 > 0 at any xi0; at xi0 = 1e-6 it is 1e-11, which an
        # absolute 1e-10 threshold reported as neutral
        freq = neutral_zero(exact_cfg, quad_flux, 1e-6)
        study = beta_convergence_study(exact_cfg, quad_flux, freq, [20.0, 30.0])
        assert not study.failures and len(study.results) == 4
        assert {r.sign_re_beta for r in study.results.values()} == {1}

    def test_simpson_quadrature_agrees(self, quad_flux, exact_freq, profile_L20):
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        rt = compute_beta(quad_flux, profile_L20, aux, BetaQuadrature.TRAPEZOID)
        rs = compute_beta(quad_flux, profile_L20, aux, BetaQuadrature.SIMPSON)
        assert abs(rt.beta - rs.beta) <= 1e-6
        assert rt.diagnostics["quadrature_cross_difference"] <= 1e-5

    def test_quadrature_named_by_its_string(self, quad_flux, exact_freq,
                                            profile_L20):
        # "simpson" once fell through to the trapezoid rule, and its result
        # could not be serialized
        aux = solve_auxiliary_if(quad_flux, exact_freq, profile_L20)
        named, chosen = (compute_beta(quad_flux, profile_L20, aux, q)
                         for q in ("simpson", BetaQuadrature.SIMPSON))
        assert named.quadrature is BetaQuadrature.SIMPSON
        assert serialize.beta_result_dict(named) == serialize.beta_result_dict(chosen)

    def test_integral_is_stability_integral(self, quad_flux, exact_cfg,
                                            exact_freq):
        # at each L of the paper table, the integrand of the paper with y = i v
        # is real, and is 2 xi0^2 ubar' - 2 (tau0 + xi0 a2(ubar)) v element by
        # element; the coupled integral is each rule's quadrature of it
        rule = {BetaQuadrature.TRAPEZOID: quad_gregory,
                BetaQuadrature.SIMPSON: quad_simpson}
        for L in (10.0, 20.0, 30.0):
            profile, aux, _ = solve_pair(exact_cfg, quad_flux, exact_freq,
                                         AuxMethod.COUPLED, L, 4000,
                                         STUDY_TAIL_TOL, math.inf)
            a2 = np.asarray(quad_flux.a2(profile.ubar))
            dterm = 2.0 * exact_freq.xi0**2 * profile.ubar_prime
            factor = 1j * exact_freq.tau0 + 1j * exact_freq.xi0 * a2
            g_paper = 2.0 * factor * (1j * aux.v) + dterm
            g = dterm - 2.0 * (exact_freq.tau0 + exact_freq.xi0 * a2) * aux.v
            assert np.array_equal(g_paper.real, g)
            assert np.all(g_paper.imag == 0.0)
            ints = {}
            for q in BetaQuadrature:
                ints[q] = float(rule[q](g, profile.grid.h))
                assert compute_beta(quad_flux, profile, aux, q).integral == ints[q]
            cross = compute_beta(quad_flux, profile, aux).diagnostics[
                "quadrature_cross_difference"]
            assert cross == abs(ints[BetaQuadrature.SIMPSON]
                                - ints[BetaQuadrature.TRAPEZOID])

    def test_if_integral_is_taken_by_parts(self, quad_flux, exact_cfg,
                                           exact_freq):
        # with R = F / ubar', the if integral is
        # 2 xi0^2 [ubar] - 2 [R v] + 2 int F R, by either rule, and v is read
        # at its two ends only
        rule = {BetaQuadrature.TRAPEZOID: quad_gregory,
                BetaQuadrature.SIMPSON: quad_simpson}
        for L in (10.0, 20.0, 30.0):
            profile = solve_profile(exact_cfg, Grid.make(L, 4000), tail_tol=1e-3)
            aux = solve_auxiliary_if(quad_flux, exact_freq, profile,
                                     decay_tol=math.inf)
            ubar, up = profile.ubar, profile.ubar_prime
            F = forcing(quad_flux, exact_freq, exact_cfg.u_minus, ubar)
            R = F / up
            ends = (2.0 * exact_freq.xi0**2 * (ubar[-1] - ubar[0])
                    - 2.0 * (R[-1] * aux.v[-1] - R[0] * aux.v[0]))
            inside = aux.v.copy()
            inside[1:-1] = np.nan
            blurred = AuxiliarySolution(grid=aux.grid, v=inside, method=aux.method,
                                        freq=aux.freq)
            for q in BetaQuadrature:
                r = compute_beta(quad_flux, profile, aux, q)
                body = float(rule[q](2.0 * F * R, profile.grid.h))
                assert r.integral == ends + body
                assert compute_beta(quad_flux, profile, blurred, q).beta == r.beta

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
            profile, aux, _ = solve_pair(exact_cfg, quad_flux, exact_freq, method,
                                         20.0, 1000)
            assert aux.method is method
            assert profile.grid.N == aux.grid.N == 1000
            assert np.max(np.abs(aux.v - exact_v(aux.grid.x))) <= 1e-4

    def test_gates_reach_both_methods(self, quad_flux, exact_cfg, exact_freq):
        # at L = 10 the correction tails (~2e-3) fail a 1e-4 decay gate
        for method in AuxMethod:
            with pytest.raises(TailNotResolved):
                solve_pair(exact_cfg, quad_flux, exact_freq, method,
                           10.0, 1000, tail_tol=1e-3, decay_tol=1e-4)
            solve_pair(exact_cfg, quad_flux, exact_freq, method,
                       10.0, 1000, tail_tol=1e-3, decay_tol=math.inf)


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
        # the coupled L = 1 entry is sampled from the L = 20 solve, and the
        # study gates still refuse its tails
        study = beta_convergence_study(
            exact_cfg, quad_flux, exact_freq, [1.0, 20.0],
            methods=[AuxMethod.INTEGRATING_FACTOR, AuxMethod.COUPLED], N=1000,
        )
        for method in study.methods:
            key_bad = (method, 1.0)
            key_ok = (method, 20.0)
            assert key_bad in study.failures
            assert isinstance(study.failures[key_bad], TailNotResolved)
            assert key_ok in study.results
        assert not study.sign_stable()

    def test_tiny_jump_entries_are_refused(self):
        # both endpoint residuals are 1e-9, below the study's 1e-3 taken
        # absolutely, but the whole half-jump
        f = burgers_flux()
        cfg, freq = standing_shock(f, 1e-9, -1e-9, 1.0)
        study = beta_convergence_study(cfg, f, freq, [20.0])
        assert not study.results
        assert set(study.failures) == {(m, 20.0) for m in AuxMethod}
        for exc in study.failures.values():
            assert isinstance(exc, TailNotResolved)
            assert "times the jump 2.000e-09" in str(exc)

    def test_quadrature_named_by_its_string(self, quad_flux, exact_cfg,
                                            exact_freq):
        named, chosen = (
            beta_convergence_study(exact_cfg, quad_flux, exact_freq, [10.0, 20.0],
                                   N=1000, quadrature=q)
            for q in ("simpson", BetaQuadrature.SIMPSON)
        )
        assert named.results.keys() == chosen.results.keys()
        assert len(named.results) == 4
        for key, r in named.results.items():
            assert r.quadrature is BetaQuadrature.SIMPSON
            assert (serialize.beta_result_dict(r)
                    == serialize.beta_result_dict(chosen.results[key]))
        # and the string's odd N is refused before any solve, as the enum's is
        with pytest.raises(ValidationError, match="field 'N': 1001 is odd"):
            beta_convergence_study(exact_cfg, quad_flux, exact_freq, [20.0],
                                   methods=[AuxMethod.COUPLED], N=1001,
                                   quadrature="simpson")

    def test_row_layout(self, quad_flux, exact_cfg, exact_freq):
        study = beta_convergence_study(
            exact_cfg, quad_flux, exact_freq, [10.0, 20.0], N=1000,
        )
        row = study.row(AuxMethod.COUPLED)
        assert len(row) == 2
        assert all(r is not None for r in row)


# (flux, u-, u+, xi0, L values) of the studies that sample each narrower L
# from the widest coupled solution
_STUDIES = {
    "exact": (quadratic_transverse_flux(), 1.0, -1.0, 1.0, [10.0, 20.0, 30.0]),
    "exact_xi0_10": (quadratic_transverse_flux(), 1.0, -1.0, 10.0,
                     [10.0, 20.0, 30.0]),
    "burgers": (burgers_flux(), 1.5, -1.0, 0.7, [10.0, 20.0, 30.0]),
    "sine": (sine_transverse_flux(), 1.0, -1.0, 1.0, [10.0, 20.0, 30.0]),
    "cubic_descending": (custom_flux((0.0, 0.0, 0.5, 0.1), (0.0, 0.0, 1.0)),
                         1.3, -1.0, 1.0, [30.0, 20.0, 10.0]),
}


class TestContinuationInL:
    """The study solves the widest L alone and samples each narrower coupled entry."""

    @pytest.mark.parametrize("name", sorted(_STUDIES))
    def test_narrowed_entries_match_cold_solves(self, name):
        f, um, up, xi0, L_values = _STUDIES[name]
        cfg, freq = standing_shock(f, um, up, xi0)
        study = beta_convergence_study(cfg, f, freq, L_values,
                                       methods=[AuxMethod.COUPLED])
        assert not study.failures
        for L in sorted(L_values)[:-1]:
            seeded = study.results[(AuxMethod.COUPLED, L)]
            profile, aux, _ = solve_pair(cfg, f, freq, AuxMethod.COUPLED, L, 4000,
                                         STUDY_TAIL_TOL, STUDY_DECAY_TOL)
            cold = compute_beta(f, profile, aux).beta
            assert abs(seeded.beta / cold - 1.0) <= 2e-12, (L, seeded.beta, cold)

    def test_order_of_L_values_does_not_matter(self, quad_flux, exact_cfg,
                                               exact_freq):
        up, down = (
            beta_convergence_study(exact_cfg, quad_flux, exact_freq, L_values)
            for L_values in ([10.0, 20.0, 30.0], [30.0, 20.0, 10.0])
        )
        assert up.results.keys() == down.results.keys()
        assert len(up.results) == 6
        for key, r in up.results.items():
            assert r.beta == down.results[key].beta
            assert r.diagnostics == down.results[key].diagnostics

    def test_narrower_entries_carry_the_widest_fold_mismatch(
            self, monkeypatch, quad_flux, exact_cfg, exact_freq):
        real = shockbeta.beta.solve_pair
        fold = {}

        def spy(cfg, f, freq, method, L, *args, **kw):
            pair = real(cfg, f, freq, method, L, *args, **kw)
            fold[L] = pair[1].diagnostics["fold_mismatch"]
            return pair

        monkeypatch.setattr(shockbeta.beta, "solve_pair", spy)
        study = beta_convergence_study(exact_cfg, quad_flux, exact_freq,
                                       [10.0, 20.0, 30.0],
                                       methods=[AuxMethod.COUPLED])
        assert not study.failures
        assert fold[10.0] == fold[20.0] == fold[30.0] <= 1e-10

    def test_sampling_reads_the_recorded_fold_check(self, monkeypatch, quad_flux,
                                                    exact_cfg, exact_freq):
        # the fold is checked when the widest L is solved, not per sampling:
        # a tolerance no solve meets, set afterwards, fails no narrower entry
        *_, widest = solve_pair(exact_cfg, quad_flux, exact_freq, AuxMethod.COUPLED,
                                30.0, 4000, STUDY_TAIL_TOL, STUDY_DECAY_TOL,
                                guess=tanh_guess)
        monkeypatch.setattr(shockbeta.coupled, "_FOLD_TOL", -1.0)
        for L in (10.0, 20.0):
            _, aux, sampled = solve_pair(exact_cfg, quad_flux, exact_freq,
                                         AuxMethod.COUPLED, L, 4000, STUDY_TAIL_TOL,
                                         STUDY_DECAY_TOL, wider=widest)
            assert sampled.bvp is widest.bvp
            assert (aux.diagnostics["fold_mismatch"]
                    == widest.aux.diagnostics["fold_mismatch"])

    def test_one_solve_per_study(self, monkeypatch, quad_flux, exact_cfg,
                                 exact_freq):
        # the widest L is solved, from one closed-form guess and no outward
        # integration; the narrower entries are sampled from it
        calls = {"bvp_solve": 0, "initial_guess": 0, "tanh_guess": 0}
        for module, name in ((shockbeta.coupled, "bvp_solve"),
                             (shockbeta.coupled, "initial_guess"),
                             (shockbeta.beta, "tanh_guess")):
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(module, name, spy)
        study = beta_convergence_study(exact_cfg, quad_flux, exact_freq,
                                       [10.0, 20.0, 30.0],
                                       methods=[AuxMethod.COUPLED])
        assert not study.failures and len(study.results) == 3
        assert calls == {"bvp_solve": 1, "initial_guess": 0, "tanh_guess": 1}
        widest = study.results[(AuxMethod.COUPLED, 30.0)].diagnostics
        for L in (10.0, 20.0):
            d = study.results[(AuxMethod.COUPLED, L)].diagnostics
            assert d["mesh_size"] == widest["mesh_size"]
            assert d["newton_per_sweep"] == widest["newton_per_sweep"]

    def test_narrower_entry_is_seeded_from_nearest_wider_success(
            self, monkeypatch, quad_flux, exact_cfg, exact_freq):
        # the widest coupled solve fails: the next one solves from the same
        # closed-form guess, and the narrowest is sampled from it
        solve = shockbeta.beta.solve_coupled
        guesses = {}

        def failing_at_30(cfg, f, freq, L, n_out, guess=None, **kw):
            guesses[L] = guess
            if L == 30.0:
                raise MeshLimitExceeded("forced")
            return solve(cfg, f, freq, L, n_out, guess=guess, **kw)

        monkeypatch.setattr(shockbeta.beta, "solve_coupled", failing_at_30)
        study = beta_convergence_study(exact_cfg, quad_flux, exact_freq,
                                       [10.0, 20.0, 30.0])
        assert list(study.failures) == [(AuxMethod.COUPLED, 30.0)]
        assert guesses == {30.0: tanh_guess, 20.0: tanh_guess}
        assert len(study.results) == 5
        sampled = study.results[(AuxMethod.COUPLED, 10.0)]
        solved = study.results[(AuxMethod.COUPLED, 20.0)]
        assert sampled.L == 10.0
        assert sampled.diagnostics["mesh_size"] == solved.diagnostics["mesh_size"]


# (flux, u-, xi0, L, N) of single-L studies that solve from the tanh guess
_CUBIC = custom_flux((0.0, 0.0, 0.5, 0.1), (0.0, 0.0, 1.0))
_TANH_STUDIES = {
    "cubic_1.0": (_CUBIC, 1.0, 1.0, 30.0, 6000),
    "cubic_1.5": (_CUBIC, 1.5, 1.0, 30.0, 6000),
    "burgers": (burgers_flux(), 1.5, 0.7, 20.0, 4000),
    "sine_1.3": (sine_transverse_flux(), 1.3, 1.0, 20.0, 4000),
}


class TestStudyGuess:
    """The study solves from the closed-form tanh guess, also off its exact case."""

    @pytest.mark.parametrize("name", sorted(_TANH_STUDIES))
    def test_tanh_guess_reaches_the_outward_guess_solution(self, name):
        # the tanh form is not the profile of a cubic f1: Newton takes more
        # iterations there, but lands on the same mesh and beta
        f, um, xi0, L, N = _TANH_STUDIES[name]
        cfg, freq = standing_shock(f, um, -1.0, xi0)
        study = beta_convergence_study(cfg, f, freq, [L], methods=[AuxMethod.COUPLED],
                                       N=N)
        assert not study.failures
        r = study.results[(AuxMethod.COUPLED, L)]
        outward = solve_coupled(cfg, f, freq, L, N, guess=initial_guess,
                                tail_tol=STUDY_TAIL_TOL, decay_tol=STUDY_DECAY_TOL)
        ref = compute_beta(f, outward.profile, outward.aux).beta
        assert r.diagnostics["mesh_size"] == outward.aux.diagnostics["mesh_size"]
        assert abs(r.beta / ref - 1.0) <= 1e-11, (r.beta, ref)

    def test_exact_case_takes_one_newton_iteration(self, quad_flux, exact_cfg,
                                                   exact_freq):
        study = beta_convergence_study(exact_cfg, quad_flux, exact_freq,
                                       [10.0, 20.0, 30.0],
                                       methods=[AuxMethod.COUPLED])
        assert not study.failures and len(study.results) == 3
        for r in study.results.values():
            assert r.diagnostics["newton_per_sweep"] == [1]
            assert r.diagnostics["mesh_size"] == 401


def _betas(f, u_minus, xi0, L=20.0, N=4000):
    """beta on both routes, by method, for the shock (u_minus, -1)."""
    cfg, freq = standing_shock(f, u_minus, -1.0, xi0)
    study = beta_convergence_study(cfg, f, freq, [L], N=N)
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

    def test_exact_table_at_xi0_10_is_100_times_xi0_1(self, quad_flux, exact_cfg):
        # the tail gates are per unit xi0, so xi0 = 10 fills the same cells
        # (both L = 10 entries failed a gate absolute in xi0)
        tables = [
            beta_convergence_study(exact_cfg, quad_flux,
                                   neutral_zero(exact_cfg, quad_flux, xi0),
                                   [10.0, 20.0, 30.0])
            for xi0 in (1.0, 10.0)
        ]
        assert not tables[0].failures and not tables[1].failures
        assert len(tables[1].results) == 6
        for key, r in tables[0].results.items():
            scaled = 100.0 * r.beta
            assert abs(tables[1].results[key].beta - scaled) <= 1e-12 * scaled
            # both routes solve v per unit xi0: the coupled mesh is the same
            assert (tables[1].results[key].diagnostics.get("mesh_size")
                    == r.diagnostics.get("mesh_size"))

    def test_doubling_xi0_quadruples_beta(self):
        # tau0, the forcing and v are linear in xi0, the integrand quadratic
        f = sine_transverse_flux()
        base = _betas(f, 1.2, 1.0)
        doubled = _betas(f, 1.2, 2.0)
        for m, beta in base.items():
            assert abs(doubled[m] - 4.0 * beta) <= 1e-12 * abs(4.0 * beta)
