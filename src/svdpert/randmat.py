"""Deterministic test-problem generation.

The random stream is fully pinned so that a seed reproduces the same matrix
on any platform or runtime, independent of library versions:

* 64-bit counter-form SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): word
  i = 1, 2, ... of the stream seeded with s is ``mix(s + i * gamma)`` with
  ``gamma = 0x9E3779B97F4A7C15`` and ``mix(z)`` being
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64).  This is the
  sequential update ``state += gamma`` unrolled, so a block of words is
  computed as one ``uint64`` array with wraparound arithmetic.
* normals come from Box-Muller pairs consumed in a fixed order: draw word a
  then word b, set ``u1 = ((a >> 11) + 1) * 2^-53`` (strictly positive, so
  the log is safe) and ``u2 = (b >> 11) * 2^-53``, return
  ``sqrt(-2 ln u1) * cos(2 pi u2)`` and cache ``sqrt(-2 ln u1) * sin(2 pi u2)``
  as the spare for the next draw from the same generator.  The spare
  carries across calls: ``matrix_with_spectrum`` draws two matrices from one
  stream.  Arithmetic is done on arrays, but ``log``, ``cos`` and ``sin``
  are Python's ``math`` functions applied per element, since numpy's
  vectorised ones may differ from them in the last bit.
* matrices are filled column by column.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .linalg import frobenius_norm, qr_orthonormal

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = float(1 << 53)

MAX_SPECTRUM_ATTEMPTS = 3


def _is_int(v) -> bool:
    """Python or numpy integer; bool is rejected although it subclasses int."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_seed(seed: int) -> int:
    if not _is_int(seed) or not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


class SplitMix64:
    """The pinned 64-bit stream described in the module docstring."""

    def __init__(self, seed: int):
        self._state = _check_seed(seed)
        self._spare = None

    def next_u64(self) -> int:
        return int(self._words(1)[0])

    def _words(self, count: int) -> np.ndarray:
        """The next count words of the stream as a uint64 array."""
        u64 = np.uint64
        z = np.arange(1, count + 1, dtype=u64)
        z *= u64(_GAMMA)
        z += u64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> u64(30)
        z *= u64(_MIX1)
        z ^= z >> u64(27)
        z *= u64(_MIX2)
        z ^= z >> u64(31)
        return z

    def next_normal(self) -> float:
        """Standard normal via Box-Muller with spare caching."""
        return float(self.normal_matrix(1, 1)[0, 0])

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols standard normals, filled column by column; the same
        values, in the same order, as rows * cols scalar Box-Muller draws."""
        if not (_is_int(rows) and _is_int(cols)) or rows < 0 or cols < 0:
            raise ValueError(
                f"dims must be nonnegative integers, got {rows!r}, {cols!r}"
            )
        need = int(rows) * int(cols)
        spare = [] if self._spare is None else [self._spare]
        pairs = (need - len(spare) + 1) // 2
        # word >> 11 < 2^53, so the conversion and the + 1 are exact
        w = (self._words(2 * pairs) >> np.uint64(11)).astype(float)
        u1 = ((w[0::2] + 1.0) / _TWO53).tolist()
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1), float, pairs))
        theta = (2.0 * math.pi * (w[1::2] / _TWO53)).tolist()
        vals = np.empty(len(spare) + 2 * pairs)
        vals[:len(spare)] = spare
        vals[len(spare)::2] = r * np.fromiter(map(math.cos, theta), float, pairs)
        vals[len(spare) + 1::2] = r * np.fromiter(map(math.sin, theta), float, pairs)
        self._spare = float(vals[need]) if vals.size > need else None
        return vals[:need].reshape((rows, cols), order="F")


@dataclass(frozen=True)
class SpectrumSpec:
    """A target spectrum: n x p (taller or square) with p prescribed
    singular values in descending order."""

    n: int
    p: int
    singular_values: tuple
    seed: int

    def __post_init__(self):
        if not (_is_int(self.n) and _is_int(self.p)):
            raise ValueError("dims must be integers")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", int(self.p))
        if not self.n >= self.p >= 1:
            raise ValueError(f"need n >= p >= 1, got n={self.n}, p={self.p}")
        sv = tuple(float(v) for v in self.singular_values)
        object.__setattr__(self, "singular_values", sv)
        if len(sv) != self.p:
            raise ValueError(f"expected {self.p} singular values, got {len(sv)}")
        if not all(math.isfinite(v) and v >= 0.0 for v in sv):
            raise ValueError("singular values must be finite and nonnegative")
        if any(sv[i] < sv[i + 1] for i in range(len(sv) - 1)):
            raise ValueError("singular values must be in descending order")
        if self.p >= 2 and sv[0] > 0.0 and sv[0] == sv[1]:
            raise ValueError("leading pair must be strictly separated")
        object.__setattr__(self, "seed", _check_seed(self.seed))


def matrix_with_spectrum(spec: SpectrumSpec) -> np.ndarray:
    """Dense n x p matrix with exactly the prescribed singular values.

    Both orthonormal factors come from qr_orthonormal applied to seeded
    normal matrices: the stream first yields the n*p entries of the left
    factor, then the p*p entries of the right one.  A rank-deficient draw
    (essentially impossible) retries with seed+1, at most
    MAX_SPECTRUM_ATTEMPTS times.
    """
    for attempt in range(MAX_SPECTRUM_ATTEMPTS):
        gen = SplitMix64((spec.seed + attempt) & _MASK64)
        gl = gen.normal_matrix(spec.n, spec.p)
        gr = gen.normal_matrix(spec.p, spec.p)
        try:
            ql = qr_orthonormal(gl)
            qright = qr_orthonormal(gr)
        except RankDeficient:
            continue
        return (ql * np.array(spec.singular_values)) @ qright.T
    raise RankDeficient(
        f"no full-rank normal draw in {MAX_SPECTRUM_ATTEMPTS} attempts"
    )


def perturbation_direction(n: int, p: int, seed: int) -> np.ndarray:
    """Seeded n x p direction with unit Frobenius norm."""
    if not (_is_int(n) and _is_int(p)):
        raise ValueError(f"dims must be integers, got n={n!r}, p={p!r}")
    if n < 1 or p < 1:
        raise ValueError(f"need positive dims, got n={n}, p={p}")
    gen = SplitMix64(_check_seed(seed))
    m = gen.normal_matrix(n, p)
    norm = frobenius_norm(m)
    if norm == 0.0:
        raise ArithmeticError("normal draw collapsed to the zero matrix")
    return m / norm
