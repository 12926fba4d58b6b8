"""Sampled auxiliary correction v attached to a profile.

The paper's correction y solves ``(y' - a1(ubar) y)' = (i tau0 + i xi0
a2(ubar)) ubar'`` at a neutral frequency with y(0) = 0.  The forcing is
purely imaginary, so its real part solves w' = a1(ubar) w with w(0) = 0 and
vanishes: y = i v, and the real array v is the whole correction.  Both
construction methods (integrating factor and coupled solve) produce this
type on the profile's uniform grid.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import TailNotResolved
from .model import NeutralFrequency
from .profile import Grid

DEFAULT_DECAY_TOL = 1e-4


class AuxMethod(str, enum.Enum):
    INTEGRATING_FACTOR = "if"
    COUPLED = "coupled"


class AuxiliarySolution:
    def __init__(self, grid: Grid, v: np.ndarray, method: AuxMethod,
                 freq: NeutralFrequency, diagnostics: dict | None = None):
        self.grid = grid
        self.v = v
        self.method = method
        self.freq = freq
        self.diagnostics = {} if diagnostics is None else diagnostics

    def tail_magnitudes(self) -> float:
        """Largest of |v| at the two domain ends."""
        return float(max(abs(self.v[0]), abs(self.v[-1])))

    def check_decay(self, tol: float = DEFAULT_DECAY_TOL) -> None:
        """Refuse tails above ``tol`` per unit xi0: v is linear in xi0."""
        mag = self.tail_magnitudes()
        if mag > tol * abs(self.freq.xi0):
            raise TailNotResolved(
                f"correction tails |v(+-L)| = {mag:.3e} exceed {tol:.1e} |xi0|; "
                f"increase L"
            )
