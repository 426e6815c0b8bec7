"""Fixed reference computations that the benchmark times its ops against.

The benchmark was built on a shared 2-core host whose core speed swings by
up to 2x for seconds to minutes at a time.  An op's wall time divided by
the time of a fixed computation run just before and after it stays put far
better than the wall time, provided the computation stresses the host the
way the op does: compute-bound and memory-bound code slow down by
different factors.  Over 20-second windows of one noisy stretch:

* `verify` spread 0.41 of its median in seconds, 0.048 against
  ``compute_seconds`` and 0.157 against ``memory_seconds``;
* `expand` spread 0.27 in seconds, 0.32 against ``compute_seconds`` and
  0.073 against ``memory_seconds``.

Both are the benchmark's own code, so no change to svdpert moves them.
"""

import math
import time

import numpy as np

_ROTATED = np.random.default_rng(2007).standard_normal((40, 12))
_GROWN = np.random.default_rng(2010).standard_normal((600, 48))


def compute_seconds():
    """Two sweeps of pairwise Givens rotations on a fixed 40x12 matrix
    (small numpy products driven by the interpreter, like the Jacobi SVD)
    and 1500 splitmix steps with a Box-Muller transform (interpreter
    arithmetic, like the generator); about 4 ms on a quiet core."""
    start = time.perf_counter()
    w = _ROTATED.copy()
    cols = w.shape[1]
    for _ in range(2):
        for i in range(cols - 1):
            for j in range(i + 1, cols):
                a, b, c = float(w[:, i] @ w[:, i]), float(w[:, j] @ w[:, j]), float(w[:, i] @ w[:, j])
                zeta = (b - a) / (2.0 * c)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                w[:, i], w[:, j] = cs * w[:, i] - sn * w[:, j], sn * w[:, i] + cs * w[:, j]
    state, total = 2007, 0.0
    for _ in range(1500):
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        u = ((z >> 11) + 1) / 9007199254740992.0
        total += math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * u)
    return time.perf_counter() - start


def memory_seconds():
    """Grow a 600-row basis one column at a time, with a row-norm pass and
    a projection per column (whole-array passes and reallocation, like the
    basis completion inside the SVD); about 5 ms on a quiet core."""
    start = time.perf_counter()
    basis = _GROWN[:, :0]
    for k in range(_GROWN.shape[1]):
        residual = 1.0 - np.sum(basis * basis, axis=1)
        v = _GROWN[:, k] - 1e-3 * (basis @ (basis.T @ _GROWN[:, k]))
        v[int(np.argmax(residual))] += 1.0
        basis = np.concatenate([basis, v[:, None]], axis=1)
    return time.perf_counter() - start


REFERENCES = {"compute": compute_seconds, "memory": memory_seconds}
