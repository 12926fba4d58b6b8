import numpy as np
import pytest

from shockbeta.errors import BadSampleCount
from shockbeta.numerics import cumquad_simpson, quad_gregory, quad_simpson, quad_trapezoid


def test_trapezoid_constant_is_exact():
    for n in (2, 5, 50):
        x = np.linspace(0.0, 1.0, n)
        assert quad_trapezoid(np.ones(n), x[1] - x[0]) == pytest.approx(1.0, abs=1e-15)


def test_simpson_exact_on_cubics():
    x = np.linspace(0.0, 1.0, 3)
    h = x[1] - x[0]
    assert quad_simpson(x**2, h) == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert quad_simpson(x**3, h) == pytest.approx(1.0 / 4.0, abs=1e-16)


def test_gregory_exact_on_cubics():
    # on 4 intervals both ends' corrections meet at the middle sample
    for n in (4, 6, 8):
        x = np.linspace(0.0, 1.0, n + 1)
        h = x[1] - x[0]
        for k in range(4):
            assert quad_gregory(x**k, h) == pytest.approx(1.0 / (k + 1), abs=1e-15)
        assert abs(quad_gregory(x**4, h) - 0.2) > 1e-6


def test_gregory_keeps_the_trapezoid_interior():
    # weight 1 inside and 3/8, 7/6, 23/24 from each end; the end weights sum
    # to the trapezoid's 1/2 + 1 + 1, so a constant is integrated exactly
    rng = np.random.default_rng(3)
    y = rng.standard_normal(41)
    h = 0.2
    ends = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
    w = np.ones(41)
    w[:3] = ends
    w[-3:] = ends[::-1]
    assert quad_gregory(y, h) == pytest.approx(h * (w @ y), rel=1e-14)
    assert quad_gregory(np.ones(41), h) == pytest.approx(8.0, rel=1e-15)


def test_gregory_complex_samples():
    x = np.linspace(0.0, 1.0, 101)
    out = quad_gregory(np.exp(1j * x), x[1] - x[0])
    assert abs(out - (np.exp(1j) - 1.0) / 1j) < 1e-9


def test_odd_integrand_on_symmetric_domain_vanishes():
    x = np.linspace(-20.0, 20.0, 4001)
    g = x / np.cosh(x / 2.0) ** 2
    h = x[1] - x[0]
    assert abs(quad_trapezoid(g, h)) < 1e-12
    assert abs(quad_gregory(g, h)) < 1e-12
    assert abs(quad_simpson(g, h)) < 1e-12


def test_sample_count_validation():
    with pytest.raises(BadSampleCount):
        quad_trapezoid(np.array([1.0]), 0.1)
    for bad in (np.ones(4), np.ones((2, 5))):
        with pytest.raises(BadSampleCount):
            quad_gregory(bad, 0.1)
    with pytest.raises(BadSampleCount):
        quad_simpson(np.array([1.0, 2.0]), 0.1)
    with pytest.raises(BadSampleCount):
        quad_simpson(np.array([1.0, 2.0, 3.0, 4.0]), 0.1)
    with pytest.raises(BadSampleCount):
        cumquad_simpson(np.array([1.0]), 0.1)
    # a grid and its every-other-node coarsening have odd sample counts
    for shape in (2, 4, 14, (2, 8)):
        with pytest.raises(BadSampleCount):
            cumquad_simpson(np.ones(shape), 0.1)


def test_cumulative_matches_prefix_rules():
    # even prefixes agree with composite Simpson; odd ones add their last
    # interval by the three-point rule h/12 (5, 8, -1) through the next node
    rng = np.random.default_rng(7)
    y = rng.standard_normal(13)
    h = 0.31
    out = cumquad_simpson(y, h)
    assert out[0] == 0.0
    for j in range(2, 13, 2):
        assert out[j] == pytest.approx(quad_simpson(y[: j + 1], h), rel=1e-14)
    for j in range(1, 13, 2):
        expected = out[j - 1] + h / 12.0 * (5.0 * y[j - 1] + 8.0 * y[j] - y[j + 1])
        assert out[j] == pytest.approx(expected, rel=1e-14)


def test_cumulative_rows_match_one_dimensional_calls():
    # a 2-row array is integrated along its last axis, each row bit for bit
    # as the 1-D call gives it
    rng = np.random.default_rng(11)
    for n in (3, 13):
        y = rng.standard_normal((2, n))
        out = cumquad_simpson(y, 0.13)
        assert out.shape == y.shape
        for row in range(2):
            assert np.array_equal(out[row], cumquad_simpson(y[row], 0.13))


def test_cumulative_against_antiderivative():
    # even prefixes are 4th order; odd prefixes add the local h^4/24 f'''
    # error of their three-point interval
    x = np.linspace(0.0, 2.0, 201)
    h = x[1] - x[0]
    err = np.abs(cumquad_simpson(np.exp(x), h) - (np.exp(x) - 1.0))
    assert np.max(err[0::2]) < 1e-9
    assert np.max(err[1::2]) < 1e-9 + (h**4 / 24.0) * np.e**2


def test_cumulative_complex_samples():
    x = np.linspace(0.0, 1.0, 101)
    h = x[1] - x[0]
    out = cumquad_simpson(np.exp(1j * x), h)
    exact = (np.exp(1j * x) - 1.0) / 1j
    err = np.abs(out - exact)
    assert np.max(err[0::2]) < 1e-9
    assert np.max(err[1::2]) < 1e-9


def _order(f, exact, counts, rule):
    errs = []
    for n in counts:
        x = np.linspace(0.0, 1.0, n + 1)
        errs.append(abs(rule(f(x), x[1] - x[0]) - exact))
    errs = np.array(errs)
    return np.log2(errs[:-1] / errs[1:])


def test_simpson_order_at_least_3_7():
    orders = _order(np.exp, np.e - 1.0, [8, 16, 32, 64], quad_simpson)
    assert np.all(orders >= 3.7)


def test_trapezoid_order_at_least_1_8():
    orders = _order(np.exp, np.e - 1.0, [8, 16, 32, 64], quad_trapezoid)
    assert np.all(orders >= 1.8)


def test_gregory_order_at_least_3_7():
    # exp on [0, 1] has not decayed at either end, so the end correction's
    # h^4 term is the error
    orders = _order(np.exp, np.e - 1.0, [8, 16, 32, 64], quad_gregory)
    assert np.all(orders >= 3.7)
