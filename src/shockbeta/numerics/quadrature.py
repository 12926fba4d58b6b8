"""Composite quadrature rules on uniformly spaced samples.

All rules accept real or complex sample arrays.  ``h`` is the (constant)
spacing between consecutive samples.
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


def quad_simpson(samples, h: float):
    """Composite Simpson rule; requires an odd sample count >= 3."""
    y = np.asarray(samples)
    if y.ndim != 1 or y.size < 3 or y.size % 2 == 0:
        raise BadSampleCount("Simpson rule needs an odd number of samples >= 3")
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def cumquad_simpson(samples, h: float):
    """Running integral from the first sample at every node, along the last axis.

    Even prefixes (an even number of intervals) are composite Simpson.  An odd
    prefix adds its last interval to the Simpson value one node back, by the
    three-point rule h/12 (5, 8, -1) through the next node, or h/12 (-1, 8, 5)
    through the two previous nodes at the last node.  Both are exact on
    quadratics, so every node is fourth order.  A single interval is a
    trapezoid.  Entry 0 is 0.
    """
    y = np.asarray(samples)
    n = y.shape[-1] if y.ndim >= 1 else 0
    if n < 2:
        raise BadSampleCount("cumulative Simpson needs >= 2 samples along the last axis")
    out = np.zeros(y.shape, dtype=np.result_type(y.dtype, float))
    if n == 2:
        out[..., 1] = (h / 2.0) * (y[..., 0] + y[..., 1])
        return out
    # Simpson value at even nodes, accumulated pair by pair.
    a, b, c = y[..., 0:-2:2], y[..., 1:-1:2], y[..., 2::2]
    out[..., 2::2] = np.cumsum((h / 3.0) * (a + 4.0 * b + c), axis=-1)
    # Odd nodes with a right neighbour: first interval of each pair.
    out[..., 1:-1:2] = out[..., 0:-2:2] + (h / 12.0) * (5.0 * a + 8.0 * b - c)
    if n % 2 == 0:
        out[..., -1] = out[..., -2] + (h / 12.0) * (
            8.0 * y[..., -2] + 5.0 * y[..., -1] - y[..., -3]
        )
    return out
