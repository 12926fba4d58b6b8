"""Fixed calibration kernel that tracks how fast the machine runs right now.

On shared cores the same invocation can take 1.5x longer for minutes at a
time while neighbouring jobs load the caches and sibling threads.  The
benchmark times this kernel next to every invocation and every fresh
interpreter, and reports times rescaled to :data:`REFERENCE_S`, the kernel's
time on a quiet machine:

    reported = measured * REFERENCE_S / kernel time next to it

The kernel mixes what the workloads do: interpreted float arithmetic,
numpy array expressions, sparse LU factorization, and formatting floats
with 17 significant digits.  It does not call the program, so a change to
the program leaves it unchanged.
"""

import time

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import splu

# Kernel time on 2 shared cores of an Intel Xeon at 2.0 GHz, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1, when the machine was quiet.
REFERENCE_S = 0.08

_N = 12000
_MATRIX = diags(
    [np.full(_N - 1, -1.0), np.full(_N, 4.0), np.full(_N - 1, -1.0), np.full(_N - 7, 0.5)],
    [-1, 0, 1, 7],
    format="csc",
)
_X = np.linspace(0.0, 1.0, 40000)


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(100000):
        s += i * 0.5
    for _ in range(40):
        np.exp(-_X) * np.sin(_X) + _X * _X
    for _ in range(3):
        splu(_MATRIX).solve(_X[:_N])
    ",".join(f"{v:.17g}" for v in _X[:15000])
    return time.perf_counter() - t0
