import numpy as np
import pytest

from shockbeta.errors import (
    DegenerateShock,
    InteriorEquilibrium,
    LaxViolation,
    RankineHugoniotViolation,
    ValidationError,
)
from shockbeta.model import (
    FluxKind,
    FluxModel,
    NeutralFrequency,
    burgers_flux,
    check_neutral,
    custom_flux,
    lopatinskii,
    make_flux,
    neutral_zero,
    normalize_to_standing,
    quadratic_transverse_flux,
    rankine_hugoniot_speed,
    sine_transverse_flux,
)


class TestFluxModels:
    def test_builtin_construction(self):
        assert burgers_flux().kind is FluxKind.BURGERS
        assert quadratic_transverse_flux().kind is FluxKind.QUADRATIC_TRANSVERSE
        assert sine_transverse_flux().kind is FluxKind.SINE_TRANSVERSE
        assert sine_transverse_flux().params["freq"] == pytest.approx(4 * np.pi)

    def test_custom_polynomial_flux(self):
        f = custom_flux([0.0, 0.0, 0.5], [0.0, 1.0])
        assert f.f1(2.0) == pytest.approx(2.0)
        assert f.a1(2.0) == pytest.approx(2.0)
        assert f.a2(5.0) == pytest.approx(1.0)

    def test_mismatched_derivative_rejected(self):
        with pytest.raises(ValidationError):
            FluxModel(
                f1=lambda u: 0.5 * u**2,
                f2=lambda u: u**2,
                a1=lambda u: 2.0 * u,  # wrong by a factor of 2
                a2=lambda u: 2.0 * u,
                kind=FluxKind.CUSTOM,
            )

    def test_make_flux_dispatch(self):
        assert make_flux("burgers").kind is FluxKind.BURGERS
        assert make_flux("sine_transverse", sine_freq=2.0).params["freq"] == 2.0
        with pytest.raises(ValidationError):
            make_flux("nonsense")
        with pytest.raises(ValidationError):
            make_flux("custom")  # missing coefficient tables


class TestShockSpeed:
    def test_standard_burgers_shock_is_standing(self):
        assert rankine_hugoniot_speed(burgers_flux(), 1.0, -1.0) == 0.0

    def test_burgers_speed_is_state_average(self):
        assert rankine_hugoniot_speed(burgers_flux(), 1.5, -1.0) == pytest.approx(0.25)

    def test_cubic_flux_speed(self):
        f = custom_flux([0.0, 0.0, 0.0, 1.0], [0.0, 1.0])  # f1 = u^3
        assert rankine_hugoniot_speed(f, 1.0, 0.0) == pytest.approx(1.0)

    def test_degenerate_states_rejected(self):
        with pytest.raises(DegenerateShock):
            rankine_hugoniot_speed(burgers_flux(), 1.0, 1.0)


# (u^2 - 1)(u - 1/3)^2, ascending coefficients
TANGENT_F1 = [-1.0 / 9.0, 2.0 / 3.0, -8.0 / 9.0, -2.0 / 3.0, 1.0]


class TestNormalizeToStanding:
    def test_zero_speed_shift_is_identity(self):
        f = burgers_flux()
        cfg = normalize_to_standing(f, 1.0, -1.0, 0.0)
        u = np.linspace(-2.0, 2.0, 17)
        # no shift: the profile field is f1(u) - f1(u-), factored exactly
        assert cfg.q_coeffs == (0.5,)
        assert np.max(np.abs(cfg.profile_field(u) - (f.f1(u) - f.f1(1.0)))) <= 1e-15
        assert cfg.u_mid == 0.0

    def test_shifted_flux_and_lax(self):
        cfg = normalize_to_standing(burgers_flux(), 1.2, -1.0, 0.1)
        c0 = 0.5 * 1.2**2 - 0.1 * 1.2
        assert cfg.profile_field(2.0) == pytest.approx(0.5 * 4.0 - 0.1 * 2.0 - c0)
        assert cfg.profile_field(1.2) == 0.0
        assert cfg.profile_field(-1.0) == 0.0
        assert cfg.a1_shifted(1.2) == pytest.approx(1.1)
        assert cfg.a1_shifted(-1.0) == pytest.approx(-1.1)

    def test_degenerate_shock(self):
        with pytest.raises(DegenerateShock):
            normalize_to_standing(burgers_flux(), 1.0, 1.0, 0.0)

    def test_rankine_hugoniot_enforced(self):
        with pytest.raises(RankineHugoniotViolation):
            normalize_to_standing(burgers_flux(), 1.0, -1.0, 0.5)

    def test_lax_violation(self):
        # expansion data: u- < u+ makes both inequalities fail for Burgers
        with pytest.raises(LaxViolation):
            normalize_to_standing(burgers_flux(), -1.0, 1.0, 0.0)

    def test_interior_equilibrium_detected(self):
        # f1 = u^4/4 - 0.3 u^2 has rest points at u = +-sqrt(0.2) inside (-1, 1)
        f = custom_flux([0.0, 0.0, -0.3, 0.0, 0.25], [0.0, 1.0])
        with pytest.raises(InteriorEquilibrium):
            normalize_to_standing(f, 1.0, -1.0, 0.0)

    def test_just_admissible_flux_accepted(self):
        # f1 = (u^2 - 1)((u - 1/3)^2 + 1e-6): Q has its least value 1e-6 inside
        f1 = np.polynomial.polynomial.polymul(
            [-1.0, 0.0, 1.0], [1.0 / 9.0 + 1e-6, -2.0 / 3.0, 1.0]
        )
        f = custom_flux(f1, [0.0, 0.0, 1.0])
        cfg = normalize_to_standing(f, 1.0, -1.0, rankine_hugoniot_speed(f, 1.0, -1.0))
        assert cfg.q(1.0 / 3.0) == pytest.approx(1e-6, rel=1e-6)

    def test_tangent_interior_equilibrium_detected(self):
        # f1 = (u^2 - 1)(u - 1/3)^2 touches zero at u = 1/3 without changing
        # sign; the double root lies between the uniform scan samples
        f = custom_flux(TANGENT_F1, [0.0, 0.0, 1.0])
        with pytest.raises(InteriorEquilibrium):
            normalize_to_standing(f, 1.0, -1.0, 0.0)


class TestLopatinskii:
    def test_real_frequency_value(self, quad_flux, exact_cfg):
        assert lopatinskii(exact_cfg, quad_flux, 1.0 + 0j, 0.0) == pytest.approx(-2.0)

    def test_symmetric_transverse_jump_vanishes(self, quad_flux, exact_cfg):
        # f2 = u^2 with u+- = -+1 has zero transverse jump
        val = lopatinskii(exact_cfg, quad_flux, 0.0, 3.7)
        assert val == 0.0

    def test_neutral_line(self, quad_flux):
        cfg = normalize_to_standing(burgers_flux(), 1.2, -1.0, 0.1)
        f = quad_flux
        for xi in (0.5, 1.0, -2.0):
            freq = neutral_zero(cfg, f, xi)
            assert abs(lopatinskii(cfg, f, 1j * freq.tau0, freq.xi0)) < 1e-14


class TestNeutralZero:
    def test_symmetric_quadratic_gives_zero_tau(self, quad_flux, exact_cfg):
        freq = neutral_zero(exact_cfg, quad_flux, 1.0)
        assert freq.tau0 == 0.0
        assert freq.xi0 == 1.0

    def test_sine_flux_integer_states(self):
        f = sine_transverse_flux()
        cfg = normalize_to_standing(burgers_flux(), 1.0, -1.0, 0.0)
        freq = neutral_zero(cfg, f, 1.0)
        assert abs(freq.tau0) < 1e-14

    def test_asymmetric_states_hand_value(self, quad_flux):
        cfg = normalize_to_standing(burgers_flux(), 1.2, -1.0, 0.1)
        freq = neutral_zero(cfg, quad_flux, 1.0)
        # -(1 - 1.44) / (-2.2)
        assert freq.tau0 == pytest.approx(-0.2, abs=1e-15)

    def test_explicit_frequency_validation(self, quad_flux, exact_cfg):
        check_neutral(exact_cfg, quad_flux, NeutralFrequency(0.0, 2.5))
        with pytest.raises(ValidationError):
            check_neutral(exact_cfg, quad_flux, NeutralFrequency(0.3, 1.0))
