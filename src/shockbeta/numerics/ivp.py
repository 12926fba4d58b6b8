"""Adaptive explicit Runge-Kutta integration (Dormand-Prince 5(4) pair).

The fifth-order solution is propagated; the embedded fourth-order solution
drives the step-size controller.  Each accepted step stores the coefficients
of the pair's quartic interpolant, so trajectories provide dense output.
Integration runs forward only, from ``t_span[0]`` to ``t_span[1] > t_span[0]``;
a problem on x <= 0 is integrated forward in t = -x with the negated field.
"""

from __future__ import annotations

import math
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
    ``(m,)``.  ``t_span`` must run forward: ``t_span[1] > t_span[0]``.
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
        if not self.t_span[1] > self.t_span[0]:
            raise BadProblem("t_span must run forward: t_span[1] > t_span[0]")


class Trajectory:
    """Dense solution of an IVP: accepted steps plus a piecewise interpolant."""

    def __init__(self, t, y, hs, rcont):
        self.t = t  # accepted step ends; step k spans [t[k], t[k + 1]]
        self.y = y
        self._hs = hs
        self._rcont = rcont  # shape (nsteps, 5, m)

    @property
    def y_final(self) -> np.ndarray:
        return self.y[-1]

    def __call__(self, t, rows=slice(None)):
        """Components ``rows`` at scalar ``t``, or (rows, k) at ``t`` of shape (k,)."""
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.t[0], self.t[-1]
        if np.any(tq < lo - 1e-12 * (1 + abs(lo))) or np.any(
            tq > hi + 1e-12 * (1 + abs(hi))
        ):
            raise ValueError("dense output queried outside the integration span")
        ts = self.t[:-1]
        idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 1)
        theta = (tq - ts[idx]) / self._hs[idx]
        theta = np.clip(theta, 0.0, 1.0)[:, None]
        r = self._rcont[:, :, rows][idx]
        out = r[:, 0] + theta * (
            r[:, 1] + (1 - theta) * (r[:, 2] + theta * (r[:, 3] + (1 - theta) * r[:, 4]))
        )
        return out[0] if np.ndim(t) == 0 else out.T


def _initial_step(rhs, t0, y0, f0, rtol, atol, max_step):
    """Hairer-style starting step estimate."""
    scale = atol + np.abs(y0) * rtol
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
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
    m = problem.y0.size

    t = t0
    y = problem.y0.copy()
    f = np.asarray(rhs(t, y), dtype=float)
    if f.shape != y.shape or not np.all(np.isfinite(f)):
        raise IntegratorFailure("rhs returned a bad value at the initial point")

    ts = [t]
    ys = [y]
    hs: list[float] = []
    rconts: list[np.ndarray] = []

    h = _initial_step(rhs, t, y, f, problem.rtol, problem.atol,
                      min(problem.max_step, tf - t0))
    K = np.empty((8, m))  # the seven stage slopes, then the new state

    while t < tf:
        h_cap = min(h, problem.max_step)
        remaining = tf - t
        if remaining <= h_cap:
            h_try, is_last = remaining, True
        else:
            h_try, is_last = h_cap, False

        if t + h_try == t:
            # no representable progress: the controller has collapsed the step
            raise IntegratorFailure(f"step size underflow at t={t!r}")
        K[0] = f
        for i in range(1, 6):
            K[i] = rhs(t + _C[i] * h_try, y + h_try * (_A[i, :i] @ K[:i]))
        K[7] = y_new = y + h_try * (_B @ K[:6])
        K[6] = f_new = rhs(t + h_try, y_new)
        if not np.isfinite(K).all():
            raise IntegratorFailure(f"non-finite right-hand side near t={t!r}")
        slopes = K[:7]

        scale = problem.atol + problem.rtol * np.maximum(np.abs(y), np.abs(y_new))
        z = h_try * (_E @ slopes) / scale
        err = math.sqrt((z * z).sum() / m)  # the RMS norm of z

        if err <= 1.0:
            # Continuous extension coefficients for this step.
            dy = y_new - y
            bspl = h_try * K[0] - dy
            rcont = np.empty((5, m))
            rcont[0] = y
            rcont[1] = dy
            rcont[2] = bspl
            rcont[3] = dy - h_try * K[6] - bspl
            rcont[4] = h_try * (_D @ slopes)
            hs.append(h_try)
            rconts.append(rcont)

            t = tf if is_last else t + h_try
            y = y_new
            f = f_new
            ts.append(t)
            ys.append(y)
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err**_ORDER_EXP
            )
            h = h_try * factor
        else:
            h = h_try * max(_MIN_FACTOR, _SAFETY * err**_ORDER_EXP)

    return Trajectory(
        np.array(ts),
        np.array(ys),
        np.array(hs),
        np.array(rconts),
    )
