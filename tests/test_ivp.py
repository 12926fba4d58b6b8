import numpy as np
import pytest

from shockbeta.errors import BadProblem, IntegratorFailure
from shockbeta.numerics import IvpProblem, ivp_solve


def test_exponential_growth_within_tolerance():
    p = IvpProblem(rhs=lambda t, y: y, t_span=(0.0, 1.0), y0=np.array([1.0]),
                   rtol=1e-10, atol=1e-12)
    traj = ivp_solve(p)
    assert traj.y_final[0] == pytest.approx(np.e, rel=1e-9)


def test_burgers_profile_equation_forward():
    # ubar' = (ubar^2 - 1)/2 from the origin reaches -tanh(1) at t = 2
    p = IvpProblem(rhs=lambda t, y: 0.5 * (y**2 - 1.0), t_span=(0.0, 2.0),
                   y0=np.array([0.0]), rtol=1e-11, atol=1e-13)
    traj = ivp_solve(p)
    assert traj.y_final[0] == pytest.approx(-np.tanh(1.0), abs=1e-10)


def test_identity_flow_is_constant():
    p = IvpProblem(rhs=lambda t, y: np.zeros_like(y), t_span=(0.0, 5.0),
                   y0=np.array([3.25, -1.5]))
    traj = ivp_solve(p)
    assert np.array_equal(traj.y_final, np.array([3.25, -1.5]))


@pytest.mark.parametrize("t_span", [(0.0, -1.0), (0.0, 0.0)])
def test_span_must_run_forward(t_span):
    with pytest.raises(BadProblem, match="forward"):
        IvpProblem(rhs=lambda t, y: y, t_span=t_span, y0=np.array([1.0]))


def test_dense_output_tracks_solution():
    p = IvpProblem(rhs=lambda t, y: np.array([np.cos(t)]), t_span=(0.0, 10.0),
                   y0=np.array([0.0]), rtol=1e-10, atol=1e-12)
    traj = ivp_solve(p)
    tq = np.linspace(0.0, 10.0, 999)
    assert np.max(np.abs(traj(tq)[0] - np.sin(tq))) < 1e-8


def test_dense_output_outside_span_rejected():
    p = IvpProblem(rhs=lambda t, y: y, t_span=(0.0, 1.0), y0=np.array([1.0]))
    traj = ivp_solve(p)
    with pytest.raises(ValueError):
        traj(1.5)


def test_convergence_order_at_least_4():
    errs = []
    for h in (0.2, 0.1, 0.05, 0.025):
        p = IvpProblem(rhs=lambda t, y: y, t_span=(0.0, 1.0), y0=np.array([1.0]),
                       rtol=1.0, atol=1.0, max_step=h)
        errs.append(abs(ivp_solve(p).y_final[0] - np.e))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 4.0)


def test_interpolant_order_matches_pair():
    # mid-step dense-output error must shrink at least 4th order as well
    errs = []
    for h in (0.2, 0.1, 0.05):
        p = IvpProblem(rhs=lambda t, y: y, t_span=(0.0, 1.0), y0=np.array([1.0]),
                       rtol=1.0, atol=1.0, max_step=h)
        traj = ivp_solve(p)
        tm = traj.t[:-1] + np.diff(traj.t) / 2.0
        errs.append(np.max(np.abs(traj(tm)[0] - np.exp(tm))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 4.0)


def test_nan_rhs_raises_integrator_failure():
    def rhs(t, y):
        return np.array([np.nan]) if t > 0.5 else y

    p = IvpProblem(rhs=rhs, t_span=(0.0, 1.0), y0=np.array([1.0]))
    with pytest.raises(IntegratorFailure):
        ivp_solve(p)


def test_blowup_raises_step_underflow():
    # y' = y^2 from y(0) = 1 blows up at t = 1; steps shrink to nothing
    p = IvpProblem(rhs=lambda t, y: y**2, t_span=(0.0, 2.0), y0=np.array([1.0]))
    with pytest.raises(IntegratorFailure):
        ivp_solve(p)


def test_problem_validation():
    with pytest.raises(BadProblem):
        IvpProblem(rhs=lambda t, y: y, t_span=(0.0, 1.0), y0=np.array([1.0]), rtol=0.0)
    with pytest.raises(BadProblem):
        IvpProblem(rhs=lambda t, y: y, t_span=(0.0, 1.0), y0=np.array([np.inf]))
    with pytest.raises(BadProblem):
        IvpProblem(rhs=lambda t, y: y, t_span=(0.0, 1.0), y0=np.array([1.0]),
                   max_step=-1.0)
