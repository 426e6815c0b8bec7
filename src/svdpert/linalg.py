"""Dense real linear algebra kernels.

Matrices are plain float64 numpy arrays.  Everything here is deterministic:
fixed sweep orders, stable sorts, and a fixed sign convention, so repeated
calls on the same input are bitwise identical.

The SVD is a thin cyclic one-sided Jacobi: columns of the work matrix are
rotated pairwise until all mutual Gram entries vanish relative to the column
norms.  It is run on the taller orientation (the input is transposed
internally when rows < cols), so ``X = U @ np.diag(S) @ V.T`` with U n x r,
V p x r and ``r = min(n, p)``.  No complement of the left basis is built:
callers that need it use the projector ``I - U U^T`` instead.  The same
sweep kernel, restricted to the pairs that contain one pivot column, yields
a single exact singular triplet, which is all a convergence-ladder rung
reads.  Each column is carried as a mantissa times its own power of two,
renormalized every sweep, so a column far below the largest one, or
cancelled far below its starting scale, keeps full relative accuracy.  The
scaling is exact for entries that neither are nor become subnormal, so it
changes no bit of U or V against unscaled sweeps and keeps them clear of
overflow and underflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, RankDeficient

# Convergence / rank thresholds.  JACOBI_TOL is relative to the geometric
# mean of the two column norms; QR_RANK_TOL is relative to the Frobenius norm
# of the factored matrix.
JACOBI_SWEEP_LIMIT = 30
JACOBI_TOL = 1e-14
QR_RANK_TOL = 1e-13


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array with positive dims and finite real
    entries."""
    m = np.asarray(a)
    if np.iscomplexobj(m):
        raise ValueError(f"{name} must be real, got dtype {m.dtype}")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"{name} must have positive dims, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class Svd:
    """Thin decomposition of an n x p matrix: S holds the r = min(n, p)
    singular values in descending order, U is n x r and V is p x r.

    A column whose singular value is exactly 0 is zero in the factor that
    the Jacobi sweeps did not produce (U when n >= p, V when n < p): no
    basis is completed for it.  Projectors such as ``I - U U^T`` then
    carry that direction along with the rest of the complement.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _exponent(A: np.ndarray) -> int:
    """The exponent e with max |A| / 2^e in [0.5, 1) (0 when A = 0)."""
    return math.frexp(float(np.max(np.abs(A))))[1]


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries.  The squares are summed
    on the entries scaled by 2^-e, e = _exponent(A), and the root is scaled
    back, so the sum cannot overflow nor its leading squares underflow, and
    frobenius_norm(2^j A) == 2^j frobenius_norm(A) exactly."""
    A = as_matrix(a, "A")
    e = _exponent(A)
    scaled = np.ldexp(A, -e)
    return math.ldexp(float(np.sqrt(np.sum(scaled * scaled))), e)


def _rotation(a: float, b: float, c: float, d: int):
    """Jacobi rotation of the columns x = 2^ei wi and y = 2^ej wj, given
    the mantissa Gram entries a = wi.wi, b = wj.wj, c = wi.wj and
    d = ej - ei.

    Returns (cs, sn, sn * 2^d, sn / 2^d): the rotation x' = cs x - sn y,
    y' = sn x + cs y, and the factors its mantissa form needs,
    wi' = cs wi - (sn 2^d) wj and wj' = (sn / 2^d) wi + cs wj.  The angle
    is tan = t = sign(zeta) / (|zeta| + hypot(1, zeta)) with
    zeta = (y.y - x.x) / (2 x.y), evaluated as q = t / 2^d from
    z = 2^d zeta with x the larger-scaled column (d <= 0), so that no
    factor above 1 is formed.
    """
    if d > 0:
        # the mirrored pair: swapping the columns negates the sine
        cs, sn, s_up, s_down = _rotation(b, a, c, -d)
        return cs, -sn, -s_down, -s_up
    z = (math.ldexp(b, 2 * d) - a) / (2.0 * c)
    q = math.copysign(1.0, z) / (abs(z) + math.hypot(math.ldexp(1.0, d), z))
    t = math.ldexp(q, d)
    cs = 1.0 / math.sqrt(1.0 + t * t)
    s_down = cs * q
    return cs, cs * t, math.ldexp(s_down, 2 * d), s_down


def _jacobi_sweeps(X: np.ndarray, max_sweeps: int, pivot=None):
    """Rotate column pairs of X until they are orthogonal.

    Returns (W, e, V) with X @ V = W * 2^e (column k of W times 2^e[k]) and
    V orthogonal.  Each column is carried as a mantissa W[:, k] and its own
    power of two.  Every sweep starts by rescaling each mantissa so that its
    largest entry lies in [0.5, 1), so the Gram entries of a column far
    below the largest one, or cancelled far below its own starting scale by
    the previous sweep, neither underflow nor lose digits.  Power-of-two
    scaling is exact and the rotation angles depend only on the true
    columns, so wherever unscaled sweeps would stay clear of overflow and
    underflow the rotations are bitwise theirs.

    The pair schedule is fixed, so the result is deterministic.  With
    pivot None a sweep visits every pair i < j row-cyclically and ends
    with all columns mutually orthogonal.  With pivot k it visits only the
    pairs that contain k, p - 1 rotations in the same order, and ends with
    column k orthogonal to every other column: row k of (X V)^T (X V) is
    then zero off the diagonal, so V[:, k] is an exact right singular
    vector of X with singular value 2^e[k] |W[:, k]| and left vector
    W[:, k] / |W[:, k]| (Demmel and Veselic 1992).
    """
    p = X.shape[1]
    pairs = [(i, j) for i in range(p - 1) for j in range(i + 1, p)
             if pivot is None or pivot in (i, j)]
    W = X
    e = np.zeros(p, dtype=int)
    V = np.eye(p)
    for _ in range(max_sweeps):
        _, exponents = np.frexp(np.max(np.abs(W), axis=0))
        W = np.ldexp(W, -exponents)
        e += exponents
        exps = e.tolist()
        rotated = False
        for i, j in pairs:
            wi = W[:, i]
            wj = W[:, j]
            a = float(wi @ wi)
            b = float(wj @ wj)
            c = float(wi @ wj)
            if abs(c) <= JACOBI_TOL * math.sqrt(a) * math.sqrt(b):
                continue
            rotated = True
            cs, sn, s_up, s_down = _rotation(a, b, c, exps[j] - exps[i])
            W[:, i], W[:, j] = cs * wi - s_up * wj, s_down * wi + cs * wj
            vi = V[:, i]
            vj = V[:, j]
            V[:, i], V[:, j] = cs * vi - sn * vj, sn * vi + cs * vj
        if not rotated:
            return W, e, V
    raise ConvergenceFailure(
        f"one-sided Jacobi did not converge in {max_sweeps} sweeps"
    )


def svd(x, max_sweeps: int = JACOBI_SWEEP_LIMIT) -> Svd:
    """Thin singular value decomposition via one-sided Jacobi.

    The sweeps run on the taller orientation, on column mantissas with
    their largest entry in [0.5, 1), each column scaled by its own power
    of two, and S is scaled back afterwards.  Signs are fixed so that the
    largest-magnitude entry of each right vector is nonnegative (ties break
    to the lowest index), the paired left vector flipping with it.  Raises
    ConvergenceFailure if the sweep budget is exhausted, which the CLI
    reports with exit code 1.  Steep spectra can exhaust the default
    budget: a 200x100 matrix with singular values 3 * 0.7^j may need 31-32
    sweeps against JACOBI_SWEEP_LIMIT = 30.  Two inputs do not converge at
    any budget, because a column left as rounding residue of the others
    stays parallel to them: rows (columns, for wide input) graded so far
    apart that the smallest singular value lies beyond the double range of
    the largest, and fewer nonzero rows than columns, such as a square
    matrix with a zero row.  ROADMAP item 2 tracks these failures.
    """
    X = as_matrix(x, "X")
    wide = X.shape[0] < X.shape[1]
    W, e, V = _jacobi_sweeps(X.T if wide else X, max_sweeps)
    mantissas = np.sqrt(np.sum(W * W, axis=0))
    norms = np.ldexp(mantissas, e)
    order = np.argsort(-norms, kind="stable")
    S = norms[order]
    V = V[:, order]
    # C order whatever W's layout: the factors' layout sets the summation
    # order of later BLAS products, and so their bits
    U = np.zeros(W.shape)
    np.divide(W[:, order], mantissas[order], out=U, where=S > 0.0)
    if wide:
        U, V = V, U
    peaks = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    signs = np.where(peaks < 0.0, -1.0, 1.0)
    U *= signs
    V *= signs
    return Svd(U=U, S=S, V=V)


def _householder_qr(A: np.ndarray):
    """Householder QR of an n x m matrix with n >= m; returns the thin
    n x m Q and the n x m R with R[k, k] possibly of either sign.  Does not
    reject rank deficiency.

    Q = H_0 ... H_{m-1} [I_m; 0] is accumulated backwards from the stored
    reflectors (LAPACK's dorgqr order), so no n x n matrix is formed.
    """
    n, m = A.shape
    R = A.astype(float, copy=True)
    reflectors = []
    for k in range(m):
        x = R[k:, k]
        nx = math.sqrt(float(x @ x))
        if nx == 0.0:
            continue
        alpha = -math.copysign(nx, x[0])
        v = x.copy()
        v[0] -= alpha
        beta = 2.0 / float(v @ v)
        R[k:, k:] -= np.outer(v, beta * (v @ R[k:, k:]))
        R[k, k] = alpha
        R[k + 1:, k] = 0.0
        reflectors.append((k, v, beta))
    Q = np.eye(n, m)
    for k, v, beta in reversed(reflectors):
        Q[k:, k:] -= np.outer(v, beta * (v @ Q[k:, k:]))
    return Q, R


def qr_orthonormal(a) -> np.ndarray:
    """Orthonormal basis of the column span, via Householder QR with the
    diagonal of R made nonnegative (so a matrix that already has orthonormal
    columns is reproduced up to roundoff).

    Raises RankDeficient when any |R[k, k]| falls at or below
    QR_RANK_TOL times the Frobenius norm of the input.  The factorization
    runs on A scaled by a power of two into max |A| in [0.5, 1), so the
    reflector norms cannot overflow or underflow and Q is bitwise the same
    for every power-of-two multiple of A.
    """
    A = as_matrix(a, "A")
    n, m = A.shape
    if n < m:
        raise DimensionMismatch(f"need rows >= cols, got {A.shape}")
    A = np.ldexp(A, -_exponent(A))
    Q, R = _householder_qr(A)
    scale = frobenius_norm(A)
    diag = np.diag(R)[:m]
    if np.any(np.abs(diag) <= QR_RANK_TOL * scale):
        raise RankDeficient(
            f"column span has numerical rank below {m} "
            f"(min |R_kk| = {float(np.min(np.abs(diag))):.3e})"
        )
    return Q * np.sign(diag)
