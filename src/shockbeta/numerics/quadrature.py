"""Composite quadrature rules on uniformly spaced samples.

All rules accept real or complex sample arrays.  ``h`` is the (constant)
spacing between consecutive samples.

:func:`quad_gregory` is the trapezoid rule with Gregory's end correction: the
trapezoid's interior weights, and 3/8, 7/6, 23/24 on the three samples at
each end.  It is fourth order on any smooth integrand, and on one that has
decayed at both ends it keeps the trapezoid's fast convergence (Trefethen &
Weideman, SIAM Rev. 56, 2014; Fornberg, SIAM Rev. 63, 2021).
"""

from __future__ import annotations

import numpy as np

from ..errors import BadSampleCount


def quad_trapezoid(samples, h: float):
    """Composite trapezoid rule over ``len(samples) - 1`` intervals."""
    y = np.asarray(samples)
    if y.ndim != 1 or y.size < 2:
        raise BadSampleCount("trapezoid rule needs a 1-D array of >= 2 samples")
    return h * (0.5 * (y[0] + y[-1]) + y[1:-1].sum())


# Gregory's end weights less the interior weight 1, from each end inwards
_GREGORY_ENDS = (3.0 / 8.0 - 1.0, 7.0 / 6.0 - 1.0, 23.0 / 24.0 - 1.0)


def quad_gregory(samples, h: float):
    """End-corrected trapezoid rule; exact on cubics from 4 intervals up.

    On 4 intervals the two ends' corrections meet at the middle sample, which
    takes both.
    """
    y = np.asarray(samples)
    if y.ndim != 1 or y.size < 5:
        raise BadSampleCount("Gregory's rule needs a 1-D array of >= 5 samples")
    total = y.sum()
    for k, w in enumerate(_GREGORY_ENDS):
        total += w * (y[k] + y[-1 - k])
    return h * total


def quad_simpson(samples, h: float):
    """Composite Simpson rule; requires an odd sample count >= 3."""
    y = np.asarray(samples)
    if y.ndim != 1 or y.size < 3 or y.size % 2 == 0:
        raise BadSampleCount("Simpson rule needs an odd number of samples >= 3")
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def cumquad_simpson(samples, h: float):
    """Running integral from the first sample at every node, along the last axis.

    The sample count is odd, as on every grid (N + 1 samples, N even) and on
    its every-other-node coarsening through the origin.  Even nodes are
    composite Simpson.  An odd node adds its interval to the Simpson value one
    node back, by the three-point rule h/12 (5, 8, -1) through the next node,
    exact on quadratics, so every node is fourth order.  Entry 0 is 0.
    """
    y = np.asarray(samples)
    n = y.shape[-1] if y.ndim >= 1 else 0
    if n < 3 or n % 2 == 0:
        raise BadSampleCount("cumulative Simpson needs an odd number of samples >= 3")
    out = np.zeros(y.shape, dtype=np.result_type(y.dtype, float))
    # Simpson value at even nodes, accumulated pair by pair.
    a, b, c = y[..., 0:-2:2], y[..., 1:-1:2], y[..., 2::2]
    out[..., 2::2] = np.cumsum((h / 3.0) * (a + 4.0 * b + c), axis=-1)
    # Odd nodes: first interval of each pair.
    out[..., 1::2] = out[..., 0:-2:2] + (h / 12.0) * (5.0 * a + 8.0 * b - c)
    return out
