"""Recompute the sine reference values of :data:`workloads.SINE_REF`.

Usage, from the root of a checkout: python3 perfbench/reference.py

Solves the sine-flux continuation at L = 20, xi0 = 1 by the coupled route at
a tighter residual tolerance and 20 times the benchmark's output grid, with
Simpson quadrature, and prints the values next to an independent
integrating-factor computation on 80 times the grid.  The two agreed to about
1e-11 relative when the stored values were made (2 cores, Python 3.11,
numpy 2.4, scipy 1.17).
"""

import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shockbeta as sb  # noqa: E402
from shockbeta.beta import BetaQuadrature  # noqa: E402

from workloads import SINE_REF, SINE_U_MINUS  # noqa: E402

L = 20.0


def main() -> int:
    flux = sb.sine_transverse_flux()
    cfg0 = sb.normalize_to_standing(flux, 1.0, -1.0, 0.0)
    points = sb.continuation_scan(cfg0, flux, 1.0, SINE_U_MINUS, L, 80000, tol=1e-10)
    for um, pt in zip(SINE_U_MINUS, points):
        coupled = sb.compute_beta(flux, pt.profile, pt.aux, BetaQuadrature.SIMPSON)
        profile = sb.solve_profile(pt.config, sb.Grid.make(L, 320000))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aux = sb.solve_auxiliary_if(flux, pt.freq, profile)
        beta_if = sb.compute_beta(flux, profile, aux, BetaQuadrature.SIMPSON).beta.real
        beta_c = coupled.beta.real
        print(f"{um}: coupled {beta_c!r}  if {beta_if!r}  "
              f"rel diff {abs(beta_if / beta_c - 1):.2e}  stored {SINE_REF[um]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
