import numpy as np
import pytest
from numpy.polynomial import polynomial as poly

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
    forcing,
    forcing_slope,
    lopatinskii,
    make_flux,
    neutral_zero,
    normalize_to_standing,
    quadratic_transverse_flux,
    rankine_hugoniot_speed,
    sine_transverse_flux,
    standing_shock,
)


class TestFluxModels:
    def test_builtin_construction(self):
        assert burgers_flux().kind is FluxKind.BURGERS
        assert quadratic_transverse_flux().kind is FluxKind.QUADRATIC_TRANSVERSE
        assert sine_transverse_flux().kind is FluxKind.SINE_TRANSVERSE
        assert sine_transverse_flux().sine_freq == pytest.approx(4 * np.pi)

    def test_custom_polynomial_flux(self):
        f = custom_flux([0.0, 0.0, 0.5], [0.0, 1.0])
        assert f.f1(2.0) == pytest.approx(2.0)
        assert f.f1_coeffs == (0.0, 0.0, 0.5)
        assert f.a2(5.0) == pytest.approx(1.0)

    def test_non_finite_f1_coefficient_rejected(self):
        with pytest.raises(ValidationError, match="f1_coeffs must be finite"):
            custom_flux([0.0, np.inf, 0.5], [0.0, 1.0])

    def test_non_finite_f1_coefficient_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="f1_coeffs must be finite"):
            FluxModel(FluxKind.CUSTOM, (0.0, np.nan, 0.5), f2_coeffs=(0.0, 1.0))

    def test_make_flux_dispatch(self):
        assert make_flux("burgers").kind is FluxKind.BURGERS
        assert make_flux("sine_transverse", sine_freq=2.0).sine_freq == 2.0
        with pytest.raises(ValidationError):
            make_flux("nonsense")
        with pytest.raises(ValidationError):
            make_flux("custom")  # missing coefficient tables

    @pytest.mark.parametrize("flux", [
        burgers_flux(), quadratic_transverse_flux(), sine_transverse_flux(),
        sine_transverse_flux(0.7),
        custom_flux((0.0, 0.0, 0.5), (0.0, 0.3, 1.0, 0.2)),
        custom_flux((0.0, 0.0, 0.5, 0.1), (2.0, -1.0, 0.0, 0.0, 0.25)),
    ], ids=lambda f: f"{f.kind.value}-{f.sine_freq or len(f.f2_coeffs)}")
    def test_a2_is_the_central_difference_of_f2(self, flux):
        u = np.linspace(-3.0, 3.0, 41)
        h = 1e-5
        fd = (flux.f2(u + h) - flux.f2(u - h)) / (2 * h)
        a2 = flux.a2(u)
        assert np.max(np.abs(fd - a2)) <= 1e-6 * (1.0 + np.max(np.abs(a2)))

    @pytest.mark.parametrize("flux, f2_coeffs", [
        (burgers_flux(), (0.0, 0.0, 0.5)),
        (quadratic_transverse_flux(), (0.0, 0.0, 1.0)),
    ], ids=["burgers", "quadratic_transverse"])
    def test_builtin_quadratic_is_its_custom_flux_bitwise(self, flux, f2_coeffs):
        custom = custom_flux((0.0, 0.0, 0.5), f2_coeffs)
        u = np.linspace(-3.0, 3.0, 97)
        for fn in ("f1", "f2", "a2"):
            assert np.array_equal(getattr(flux, fn)(u), getattr(custom, fn)(u))
            assert getattr(flux, fn)(-1.3) == getattr(custom, fn)(-1.3)

    def test_overflowing_f2_is_named_without_a_warning(self):
        # finite coefficients whose f2 overflows on the state interval
        f = custom_flux((0.0, 0.0, 0.5), (0.0, 1e308, 1e308))
        with pytest.raises(ValidationError, match="f2 is not finite"):
            normalize_to_standing(f, 1.0, -1.0, 0.0)


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

    @pytest.mark.parametrize("flux", [
        burgers_flux(), quadratic_transverse_flux(), sine_transverse_flux(),
    ], ids=lambda f: f.kind.value)
    def test_builtin_a1_shifted_is_u_minus_s_bitwise(self, flux):
        # f1 = u^2/2, so P' = u - s with no rounding beyond the subtraction
        for um, up in ((1.0, -1.0), (1.5, -1.0), (0.3, -2.7), (2.9, 0.7)):
            s = rankine_hugoniot_speed(flux, um, up)
            cfg = normalize_to_standing(flux, um, up, s)
            u = np.linspace(-3.0, 3.0, 97)
            assert np.array_equal(cfg.a1_shifted(u), u - s)
            assert cfg.d2p_coeffs == (1.0,)

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


def _numpy_shock_data(f, cfg):
    """(q, P', P'') of the shock by numpy.polynomial, the reference."""
    c0 = f.f1(cfg.u_minus) - cfg.s * cfg.u_minus
    p = poly.polysub(f.f1_coeffs, (c0, cfg.s))
    dp = poly.polyder(p)
    q, _ = poly.polydiv(p, poly.polyfromroots((cfg.u_plus, cfg.u_minus)))
    return tuple(tuple(float(c) for c in cs) for cs in (q, dp, poly.polyder(dp)))


def _seeded_custom_shocks():
    """Admissible custom f1 of degree 2-5 from a fixed seed, one of them with
    trailing zeros: u^2/2 with a small perturbation, u- near 1, u+ near -1."""
    rng = np.random.default_rng(20260)
    shocks = []
    for degree in (2, 3, 4, 5, 2, 3, 4, 5):
        f1 = [float(c) for c in rng.uniform(-0.04, 0.04, degree + 1)]
        f1[2] += 0.5
        shocks.append((f1, float(rng.uniform(0.8, 1.6)), float(rng.uniform(-1.4, -0.7))))
    shocks.append(([0.0, 0.0, 0.5, 0.1, 0.0, 0.0], 1.5, -1.0))
    return shocks


class TestShockDataBitForBit:
    """Every coefficient table equals numpy.polynomial's, bit for bit."""

    @pytest.mark.parametrize("flux, u_minus, u_plus", [
        pytest.param(burgers_flux(), 1.0, -1.0, id="burgers"),
        pytest.param(burgers_flux(), 1.5, -1.0, id="burgers-moving"),
        pytest.param(quadratic_transverse_flux(), 1.0, -1.0, id="quadratic"),
        pytest.param(quadratic_transverse_flux(), 0.0, -1.3, id="quadratic-zero-state"),
        pytest.param(sine_transverse_flux(), 1.0, -1.0, id="sine"),
        pytest.param(sine_transverse_flux(), 1.3, -1.0, id="sine-1.3"),
        pytest.param(custom_flux((0.0, 0.0, 0.5, 0.1), (0.0, 0.0, 1.0)), 1.5, -1.0,
                     id="ci-cubic"),
        pytest.param(custom_flux((0.0, 0.0, 0.5, 0.1), (0.0, 0.0, 1.0)), 1.0, -1.0,
                     id="ci-cubic-1.0"),
    ] + [pytest.param(custom_flux(f1, (0.0, 0.0, 1.0)), um, up,
                      id=f"custom-{k}-{len(f1)}-coeffs")
         for k, (f1, um, up) in enumerate(_seeded_custom_shocks())])
    def test_tables_equal_numpy_polynomial(self, flux, u_minus, u_plus):
        cfg, _ = standing_shock(flux, u_minus, u_plus, 1.0)
        got = (cfg.q_coeffs, cfg.dp_coeffs, cfg.d2p_coeffs)
        ref = _numpy_shock_data(flux, cfg)
        assert got == ref
        # signed zeros included
        assert [[c.hex() for c in cs] for cs in got] == [
            [c.hex() for c in cs] for cs in ref]


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


# (flux, u-, u+, xi0) of one shock per flux family
_FAMILIES = {
    "burgers": (burgers_flux(), 1.5, -1.0, 0.7),
    "quadratic": (quadratic_transverse_flux(), 1.2, -1.0, 1.3),
    "sine": (sine_transverse_flux(), 1.3, -1.0, 1.0),
    "custom": (custom_flux((0.0, 0.0, 0.5, 0.1), (0.0, 0.3, 1.0, 0.2)),
               1.0, -1.0, 1.3),
}


class TestForcing:
    """F(u) = tau0 (u - u-) + xi0 (f2(u) - f2(u-)) at the neutral zero."""

    @pytest.mark.parametrize("name", sorted(_FAMILIES))
    def test_vanishes_at_both_end_states(self, name):
        f, um, up, xi0 = _FAMILIES[name]
        cfg, freq = standing_shock(f, um, up, xi0)
        assert forcing(f, freq, um, um) == 0.0
        F_plus = forcing(f, freq, um, up)
        scale = max(1.0, abs(cfg.u_jump) * (1.0 + abs(freq.tau0) + abs(freq.xi0)))
        assert abs(F_plus) <= 1e-14 * scale
        # the neutral condition Delta(i tau0, xi0) = i F(u+)
        assert lopatinskii(cfg, f, 1j * freq.tau0, freq.xi0) == 1j * F_plus

    @pytest.mark.parametrize("name", sorted(_FAMILIES))
    def test_slope_is_the_derivative(self, name):
        f, um, up, xi0 = _FAMILIES[name]
        _, freq = standing_shock(f, um, up, xi0)
        u = np.linspace(up, um, 9)
        h = 1e-6
        fd = (forcing(f, freq, um, u + h) - forcing(f, freq, um, u - h)) / (2 * h)
        slope = forcing_slope(f, freq, u)
        assert slope.shape == u.shape
        assert np.max(np.abs(fd - slope)) <= 1e-7 * (1.0 + np.max(np.abs(slope)))

    def test_standing_shock_composes_the_three_steps(self):
        f, um, up, xi0 = _FAMILIES["custom"]
        cfg = normalize_to_standing(f, um, up, rankine_hugoniot_speed(f, um, up))
        assert standing_shock(f, um, up, xi0) == (cfg, neutral_zero(cfg, f, xi0))


class TestValueRecords:
    """Flux, shock and neutral frequency compare and hash by their fields."""

    @staticmethod
    def _pairs():
        shock = normalize_to_standing(quadratic_transverse_flux(), 1.0, -1.0, 0.0)
        return [
            (custom_flux([0.0, 0.0, 0.5], [0.0, 1.0]),
             custom_flux((0, 0, 0.5), (0.0, 1)),
             [custom_flux([0.0, 0.0, 0.5], [0.0, 2.0]),
              FluxModel(FluxKind.SINE_TRANSVERSE, (0.0, 0.0, 0.5), sine_freq=1.0)]),
            (sine_transverse_flux(2.0), sine_transverse_flux(2),
             [sine_transverse_flux(3.0), burgers_flux()]),
            (NeutralFrequency(0.25, 1.0), NeutralFrequency(tau0=0.25, xi0=1),
             [NeutralFrequency(0.25, 2.0), NeutralFrequency(0.5, 1.0)]),
            (shock, normalize_to_standing(quadratic_transverse_flux(), 1, -1, 0),
             [normalize_to_standing(quadratic_transverse_flux(), 1.0, -0.5, 0.25)]),
        ]

    def test_equal_and_hashed_by_fields(self):
        for record, same, others in self._pairs():
            assert record == same and hash(record) == hash(same)
            assert len({record, same, *others}) == 1 + len(others)
            for other in others:
                assert record != other
            assert record != tuple(getattr(record, name) for name in record._fields)

    def test_assignment_refused(self):
        for record, _, _ in self._pairs():
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0.0)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_shown_by_fields(self):
        assert repr(NeutralFrequency(0.25, 1.0)) == "NeutralFrequency(tau0=0.25, xi0=1.0)"
