"""Adaptive explicit Runge-Kutta integration (Dormand-Prince 5(4) pair).

The fifth-order solution is propagated; the embedded fourth-order solution
drives the step-size controller.  Each accepted step stores the coefficients
of the pair's quartic interpolant, so trajectories provide dense output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import BadProblem, IntegratorFailure

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    ]
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# b - b_hat, the 5th-minus-4th order difference used for the error estimate.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Quartic interpolant weights (Hairer/Dormand continuous extension).
_D = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXP = -1.0 / 5.0


@dataclass
class IvpProblem:
    """An initial-value problem ``y' = rhs(t, y)`` on ``t_span``.

    ``rhs`` maps ``(t, y)`` with ``y`` of shape ``(m,)`` to an array of shape
    ``(m,)``.  Integration may run in either direction of ``t_span``.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    t_span: tuple[float, float]
    y0: np.ndarray
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = np.inf

    def __post_init__(self):
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if self.rtol <= 0 or self.atol <= 0:
            raise BadProblem("rtol and atol must be positive")
        if self.y0.ndim != 1 or not np.all(np.isfinite(self.y0)):
            raise BadProblem("y0 must be a finite 1-D state vector")
        if self.max_step <= 0:
            raise BadProblem("max_step must be positive")


class Trajectory:
    """Dense solution of an IVP: accepted steps plus a piecewise interpolant."""

    def __init__(self, t, y, t0, hs, rcont, direction):
        self.t = t
        self.y = y
        self._t0 = t0
        self._hs = hs
        self._rcont = rcont  # shape (nsteps, 5, m)
        self._direction = direction

    @property
    def y_final(self) -> np.ndarray:
        return self.y[-1]

    def __call__(self, t):
        """Evaluate the interpolant at scalar or array ``t`` inside the span."""
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        tau = self._direction * tq
        ts = self._direction * self._t0
        lo, hi = ts[0], self._direction * self.t[-1]
        if np.any(tau < lo - 1e-12 * (1 + abs(lo))) or np.any(
            tau > hi + 1e-12 * (1 + abs(hi))
        ):
            raise ValueError("dense output queried outside the integration span")
        idx = np.clip(np.searchsorted(ts, tau, side="right") - 1, 0, len(ts) - 1)
        theta = (tq - self._t0[idx]) / self._hs[idx]
        theta = np.clip(theta, 0.0, 1.0)[:, None]
        r = self._rcont[idx]
        out = r[:, 0] + theta * (
            r[:, 1] + (1 - theta) * (r[:, 2] + theta * (r[:, 3] + (1 - theta) * r[:, 4]))
        )
        if np.ndim(t) == 0:
            return out[0]
        return out


def _initial_step(rhs, t0, y0, f0, direction, rtol, atol, max_step):
    """Hairer-style starting step estimate."""
    scale = atol + np.abs(y0) * rtol
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = rhs(t0 + h0 * direction, y1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


def ivp_solve(problem: IvpProblem) -> Trajectory:
    """Integrate an :class:`IvpProblem` and return a dense :class:`Trajectory`.

    Raises :class:`IntegratorFailure` on step-size underflow or when the
    right-hand side returns non-finite values.
    """
    rhs = problem.rhs
    t0, tf = problem.t_span
    direction = 1.0 if tf >= t0 else -1.0
    span = abs(tf - t0)
    m = problem.y0.size

    t = t0
    y = problem.y0.copy()
    f = np.asarray(rhs(t, y), dtype=float)
    if f.shape != y.shape or not np.all(np.isfinite(f)):
        raise IntegratorFailure("rhs returned a bad value at the initial point")

    ts = [t]
    ys = [y.copy()]
    t_lefts: list[float] = []
    hs: list[float] = []
    rconts: list[np.ndarray] = []

    if span == 0.0:
        rcont = np.zeros((1, 5, m))
        rcont[0, 0] = y
        return Trajectory(
            np.array(ts), np.array(ys), np.array([t0]), np.array([1.0]),
            rcont, direction,
        )

    h = _initial_step(rhs, t, y, f, direction, problem.rtol, problem.atol,
                      min(problem.max_step, span))
    K = np.empty((7, m))

    while direction * (tf - t) > 0:
        h_cap = min(h, problem.max_step)
        remaining = abs(tf - t)
        if remaining <= h_cap:
            h_try, is_last = remaining, True
        else:
            h_try, is_last = h_cap, False

        hd = h_try * direction
        if t + hd == t:
            # no representable progress: the controller has collapsed the step
            raise IntegratorFailure(f"step size underflow at t={t!r}")
        K[0] = f
        for i in range(1, 6):
            K[i] = rhs(t + _C[i] * hd, y + hd * (_A[i, :i] @ K[:i]))
        y_new = y + hd * (_B @ K[:6])
        f_new = rhs(t + hd, y_new)
        K[6] = f_new
        if not np.all(np.isfinite(K)) or not np.all(np.isfinite(y_new)):
            raise IntegratorFailure(f"non-finite right-hand side near t={t!r}")

        scale = problem.atol + problem.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean((hd * (_E @ K) / scale) ** 2))

        if err <= 1.0:
            # Continuous extension coefficients for this step.
            dy = y_new - y
            bspl = hd * K[0] - dy
            rcont = np.empty((5, m))
            rcont[0] = y
            rcont[1] = dy
            rcont[2] = bspl
            rcont[3] = dy - hd * K[6] - bspl
            rcont[4] = hd * (_D @ K)
            t_lefts.append(t)
            hs.append(hd)
            rconts.append(rcont)

            t = tf if is_last else t + hd
            y = y_new
            f = f_new
            ts.append(t)
            ys.append(y.copy())
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err**_ORDER_EXP
            )
            h = h_try * factor
        else:
            h = h_try * max(_MIN_FACTOR, _SAFETY * err**_ORDER_EXP)

    return Trajectory(
        np.array(ts),
        np.array(ys),
        np.array(t_lefts),
        np.array(hs),
        np.array(rconts),
        direction,
    )
