"""Dense real linear algebra kernels.

Matrices are plain float64 numpy arrays.  Everything here is deterministic:
fixed sweep orders, stable sorts, and a fixed sign convention, so repeated
calls on the same input are bitwise identical.

The SVD is a thin one-sided Jacobi preconditioned by two QR factorizations,
``X = U @ np.diag(S) @ V.T`` with U n x r, V p x r, ``r = min(n, p)``, and
no complement basis (callers use ``I - U U^T``).  The same sweep check and
rotation step, on the pairs that hold one pivot column of a stack of
matrices, give one exact singular triplet per matrix: all that a
convergence ladder's rungs read.  Each column is a mantissa times its own
power of two, renormalized every sweep, so a column far below the largest
one, or cancelled far below its starting scale, keeps full relative
accuracy; the scaling is exact for entries that neither are nor become
subnormal.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, RankDeficient

# Convergence / rank thresholds.  JACOBI_TOL is relative to the geometric
# mean of the two column norms; QR_RANK_TOL is relative to the Frobenius norm
# of the factored matrix.
JACOBI_SWEEP_LIMIT = 30
JACOBI_TOL = 1e-14
QR_RANK_TOL = 1e-13
# From this many columns on, svd's sweeps rotate each round's pairs at once;
# below, pair by pair on Python floats, with the same bits: it sets speed only
_BATCH_MIN_WIDTH = 8
# _sweep_start's chunks of pairs span up to this many entries (the first 1/16)
_CHECK_CELLS = 1 << 16
# Householder QR factors, and applies, its reflectors this many at a time
_PANEL = 16


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
    return math.frexp(float(np.abs(A).max()))[1]


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
    d = ej - ei.  Returns (cs, sn * 2^d, sn, sn / 2^d): the rotation
    x' = cs x - sn y, y' = sn x + cs y, and the factors of its mantissa form
    wi' = cs wi - (sn 2^d) wj, wj' = (sn / 2^d) wi + cs wj.  The angle is
    tan = t = sign(zeta) / (|zeta| + hypot(1, zeta)), zeta = (y.y - x.x) /
    (2 x.y), evaluated as q = t / 2^d from z = 2^d zeta with x the
    larger-scaled column (d <= 0), so that no factor above 1 is formed; a
    pair with d > 0 is mirrored, which negates the sine."""
    mirror = d > 0
    if mirror:
        a, b, d = b, a, -d
    z = (math.ldexp(b, 2 * d) - a) / (2.0 * c)
    q = math.copysign(1.0, z) / (abs(z) + math.hypot(math.ldexp(1.0, d), z))
    t = math.ldexp(q, d)
    cs = 1.0 / math.sqrt(1.0 + t * t)
    big = cs * q
    sn, small = cs * t, math.ldexp(big, 2 * d)
    if mirror:
        return cs, -big, -sn, -small
    return cs, small, sn, big


@lru_cache(maxsize=16)
def _round_robin(p: int) -> np.ndarray:
    """Brent and Luk's round-robin schedule, an array (shared: not to be
    written) of p - 1 rounds (p when p is odd) of floor(p / 2) disjoint
    (top, bottom) pairs that visit every pair once.  The columns sit on a
    ring, with a dummy p when p is odd; a round pairs the ring's first half
    with its second half reversed, then every place but the first turns."""
    m, h = p + p % 2, (p + 1) // 2
    ring = np.zeros((m - 1, m), dtype=int)
    ring[:, 1:] = 1 + (np.arange(m - 1) - np.arange(m - 1)[:, None]) % (m - 1)
    pairs = np.stack((ring[:, :h], ring[:, :h - 1:-1]), axis=2)
    return pairs[(pairs < p).all(axis=2)].reshape(m - 1, p // 2, 2)


def _rotate_pairs(W, V, e, pairs) -> bool:
    """One sweep of the pair path on lists of Python floats, in place: W
    and V hold the columns of the swept matrix and of V as rows, e the
    exponents of W's rows.  Each row of W is first rescaled as the batched
    path rescales it, then each pair is rotated in turn.  The Gram entries
    are summed in order, as np.add.reduce sums fewer than 8 terms (sum()
    compensates from Python 3.12 on, math.fsum rounds exactly), so below
    _BATCH_MIN_WIDTH columns every rotation is bitwise the batched
    rounds'; returns whether any pair was rotated."""
    for k, w in enumerate(W):
        shift = math.frexp(max(map(abs, w)))[1]
        if shift:
            W[k] = [math.ldexp(x, -shift) for x in w]
            e[k] += shift
    rotated = False
    for i, j in pairs:
        wi, wj = W[i], W[j]
        a = b = c = 0.0
        for x, y in zip(wi, wj):
            a += x * x
            b += y * y
            c += x * y
        if abs(c) <= JACOBI_TOL * math.sqrt(a) * math.sqrt(b):
            continue
        rotated = True
        cs, s_up, sn, s_down = _rotation(a, b, c, e[j] - e[i])
        W[i] = [cs * x - s_up * y for x, y in zip(wi, wj)]
        W[j] = [s_down * x + cs * y for x, y in zip(wi, wj)]
        vi, vj = V[i], V[j]
        V[i] = [cs * x - sn * y for x, y in zip(vi, vj)]
        V[j] = [sn * x + cs * y for x, y in zip(vi, vj)]
    return rotated


def _sweep_start(W, e, I, J, live):
    """Start a sweep: rescale each row of W in place so that its largest
    entry lies in [0.5, 1), adding the shifts to e, and return live & turns,
    turns[r] whether _jacobi_step would rotate one of the pairs (I[r, k],
    J[r, k]), top row first, of the rescaled rows.  No pair turns before the
    first that would, so turns[r] is whether the sweep rotates matrix r.
    The chunks of pairs double until every live matrix has one that turns."""
    _, shifts = np.frexp(np.max(np.abs(W), axis=1))
    np.ldexp(W, -shifts[:, None], out=W)
    e += shifts
    norms = np.sqrt(np.add.reduce(W * W, axis=1))
    turns, cells = np.zeros(len(I), dtype=bool), len(I) * W.shape[1]
    k, step = 0, max(1, (_CHECK_CELLS >> 4) // cells)
    while k < I.shape[1] and not turns[live].all():
        i, j = I[:, k:k + step], J[:, k:k + step]
        c = np.add.reduce(W.take(i, axis=0) * W.take(j, axis=0), axis=2)
        turns |= (np.abs(c) > JACOBI_TOL * norms[i] * norms[j]).any(axis=1)
        k, step = k + step, min(2 * step, max(1, _CHECK_CELLS // cells))
    return live & turns


def _jacobi_step(WV, e, top, bottom, live=None):
    """Rotate the disjoint row pairs (top[k], bottom[k]) of WV, top and
    bottom basic slices: WV[0] holds W's rows, mantissas with exponents e,
    and WV[1] V's, so one broadcast rotates both.  A pair turns, by
    _rotation on Python floats, where live and |c| > JACOBI_TOL sqrt(a)
    sqrt(b).  Returns the (top, bottom) rows: new ones, the pairs that do
    not turn rotated by the identity, or WV's own if no pair turns."""
    x, y = WV[0, top], WV[0, bottom]
    products = np.empty((3, *x.shape))
    np.multiply(x, x, out=products[0])
    np.multiply(y, y, out=products[1])
    np.multiply(x, y, out=products[2])
    a, b, c = G = np.add.reduce(products, axis=2)
    roots = np.sqrt(G[:2])
    active = np.abs(c) > JACOBI_TOL * roots[0] * roots[1]
    if live is not None:
        active &= live
    if not active.any():
        return WV[:, top], WV[:, bottom]
    factors = map(lambda a, b, c, d, on: _rotation(a, b, c, d) if on else
                  (1.0, 0.0, 0.0, 0.0), a.tolist(), b.tolist(), c.tolist(),
                  (e[bottom] - e[top]).tolist(), active.tolist())
    F = np.fromiter(chain.from_iterable(factors), float).reshape(-1, 4).T[..., None]
    # F = (cs, s_up, sn, s_down): F[1:3] and F[3:1:-1] pair with (W, V)
    x, y = WV[:, top], WV[:, bottom]
    return F[0] * x - F[1:3] * y, F[3:1:-1] * x + F[0] * y


def _jacobi_sweeps(L: np.ndarray, max_sweeps: int):
    """Rotate column pairs of the p x p matrix L until they are orthogonal;
    returns (W, e, V) with L @ V = W * 2^e (column k of W times 2^e[k]) and
    V orthogonal.

    Every sweep first rescales each column's mantissa so that its largest
    entry lies in [0.5, 1), so the Gram entries of a column far below the
    largest one, or cancelled far below its own starting scale, neither
    underflow nor lose digits; the scaling is exact and the angles depend
    only on the true columns, so wherever unscaled sweeps stay clear of
    overflow and underflow the rotations are bitwise theirs.  A sweep runs
    _round_robin's rounds: from _BATCH_MIN_WIDTH columns on, one
    _sweep_start, which ends the solve if no pair would rotate, and one
    _jacobi_step per round; below, pair by pair on Python floats
    (_rotate_pairs), with the same bits.
    """
    p = len(L)
    if p < _BATCH_MIN_WIDTH:
        W, V, e = L.T.tolist(), np.eye(p).tolist(), [0] * p
        pairs = _round_robin(p).reshape(-1, 2).tolist()
        for _ in range(max_sweeps):
            if not _rotate_pairs(W, V, e, pairs):
                return np.array(W).T, np.array(e), np.array(V).T
    else:
        # row q of W and V holds column ring[q] (ring is self-inverse) when a
        # sweep starts, so a round pairs rows q and h + q; odd p adds a zero row
        m, h = p + p % 2, (p + 1) // 2
        ring = np.concatenate((np.arange(h), np.arange(m - 1, h - 1, -1)))
        turn = np.array([0, h, *range(1, h - 1), *range(h + 1, m), h - 1])
        I, J = np.moveaxis(ring[_round_robin(p)], 2, 0).reshape(2, 1, -1)
        WV, e, live = np.zeros((2, m, p)), np.zeros(m, dtype=int), np.ones(1, bool)
        WV[:, ring[:p]] = L.T, np.eye(p)
        for _ in range(max_sweeps):
            if not _sweep_start(WV[0], e, I, J, live)[0]:
                return WV[0, ring[:p]].T, e[ring[:p]], WV[1, ring[:p]].T
            for _ in range(m - 1):
                x, y = _jacobi_step(WV, e, slice(h), slice(h, m))
                WV = np.concatenate(
                    (x[:, :1], y[:, :1], x[:, 1:-1], y[:, 1:], x[:, -1:]), axis=1)
                e = e[turn]
    raise ConvergenceFailure(
        f"one-sided Jacobi did not converge in {max_sweeps} sweeps")


def _pivot_sweeps(X: np.ndarray, pivot: int, max_sweeps: int):
    """One exact singular triplet of each n x p matrix of a stack:
    _jacobi_sweeps' sweeps over the pairs (pivot, j) alone, until the pivot
    column is orthogonal to every other, so V[:, pivot] is an exact right
    singular vector, W[:, pivot] scaled by 2^e its value times its left
    vector (Demmel and Veselic 1992).  The matrices move in lockstep, column
    j of matrix r and of its V (zero-padded to one length) in row r p + j
    of one array: a sweep is one _sweep_start, ending each matrix it would
    not rotate, and one _jacobi_step per j on the rows pivot::p and j::p.
    Each matrix gets the bits it gets alone.  Yields (sigma, u, y = V[:,
    pivot]) per matrix in order once all are solved, raising
    ConvergenceFailure on reaching one not ended within max_sweeps sweeps.
    """
    count, n, p = X.shape
    WV = np.zeros((2, count * p, max(n, p)))
    WV[0, :, :n] = np.swapaxes(X, 1, 2).reshape(count * p, n)
    WV[1, :, :p] = np.tile(np.eye(p), (count, 1))
    e, live = np.zeros(count * p, dtype=int), np.ones(count, dtype=bool)
    others = [j for j in range(p) if j != pivot]
    rows = p * np.arange(count)[:, None]
    I, J = np.repeat(rows + pivot, p - 1, axis=1), rows + others
    top = slice(pivot, None, p)
    for _ in range(max_sweeps):
        live = _sweep_start(WV[0], e, I, J, live)
        if not live.any():
            break
        for j in others:
            WV[:, top], WV[:, j::p] = _jacobi_step(WV, e, top, slice(j, None, p), live)
    for ended, w, y, exponent in zip(~live, WV[0, top, :n], WV[1, top, :p], e[top]):
        if not ended:
            raise ConvergenceFailure(
                f"one-sided Jacobi did not converge in {max_sweeps} sweeps")
        # not w @ w, whose bits follow w's alignment; a zero u is refused later
        norm = math.sqrt(float(np.add.reduce(w * w)))
        yield math.ldexp(norm, int(exponent)), (w / norm if norm else w), y


def _preconditioning_qr(A: np.ndarray, pivot: bool):
    """Householder QR of an n x m matrix with n >= m, with or without
    column pivoting: returns the m x m upper triangle R, the column order
    perm with A[:, perm] = Q R, and the reflectors (k, v, beta) from which
    _reflect applies Q = H_0 ... H_{m-1} [I_m; 0].

    The pivot is the largest column norm of the trailing block, ties to
    the lowest index.  Column and reflector norms are taken in
    power-of-two-scaled form, as frobenius_norm takes its norm, so columns
    graded to 1e+-300 neither overflow nor underflow.  A column already
    zero below the diagonal gets no reflector, so a diagonal matrix is its
    own R.  Without pivoting, which reads each updated trailing norm, the
    reflectors of a panel of _PANEL columns update the rest at once.
    """
    Rt = np.array(A.T, dtype=float, order="C")  # a column is a contiguous row
    m, n = Rt.shape
    perm, reflectors = np.arange(m), []
    width = m if pivot else _PANEL
    for start in range(0, m, width):
        end = min(start + width, m)
        for k in range(start, end):
            if pivot and k < m - 1:
                C = Rt[k:, k:]
                peaks = np.max(np.abs(C), axis=1)
                _, e = np.frexp(peaks)
                roots = np.sqrt(np.sum(np.square(np.ldexp(C, -e[:, None])), axis=1))
                j = k + int(np.argmax(np.ldexp(roots, e - e[peaks.argmax()])))
                if j != k:
                    Rt[[k, j]] = Rt[[j, k]]
                    perm[[k, j]] = perm[[j, k]]
            x = Rt[k, k:]
            if not np.count_nonzero(x[1:]):
                continue
            e = _exponent(x)
            v = np.ldexp(x, -e)
            alpha = -math.copysign(math.sqrt(float(v @ v)), v[0])
            v[0] -= alpha
            beta = -1.0 / (alpha * v[0])  # 2 / (v @ v), as v @ v = -2 alpha v[0]
            Rt[k + 1:end, k:] -= (beta * (Rt[k + 1:end, k:] @ v))[:, None] * v
            Rt[k, k] = math.ldexp(alpha, e)
            Rt[k, k + 1:] = 0.0
            reflectors.append((k, v, beta))
        if end < m:  # the panel's Q^T, its reflectors last first, on the rest
            _reflect([r for r in reflectors[::-1] if r[0] >= start], Rt[end:].T)
    return Rt[:, :m].T, perm, reflectors


def _reflect(reflectors, B: np.ndarray) -> np.ndarray:
    """H_a ... H_b B, in place, for a list of _preconditioning_qr's
    reflectors (k, v, beta) in any order.  Each _PANEL of them is applied
    as I - Y^T T Y, row i of Y the i-th v (the compact WY form of
    Schreiber and Van Loan 1989), T built as LAPACK's dlarft builds it."""
    for i in reversed(range(0, len(reflectors), _PANEL)):
        chunk = reflectors[i:i + _PANEL]
        start = min(k for k, _, _ in chunk)
        Y = np.zeros((len(chunk), len(B) - start))
        for j, (k, v, _) in enumerate(chunk):
            Y[j, k - start:] = v
        T = np.diag([beta for _, _, beta in chunk])
        G = Y @ Y.T
        for j in range(1, len(chunk)):
            T[:j, j] = -T[j, j] * (T[:j, :j] @ G[:j, j])
        B[start:] -= Y.T @ (T @ (Y @ B[start:]))
    return B


def svd(x, max_sweeps: int = JACOBI_SWEEP_LIMIT) -> Svd:
    """Thin singular value decomposition via QR-preconditioned one-sided
    Jacobi (Drmac and Veselic, "New fast and accurate Jacobi SVD algorithm
    I/II", SIAM J. Matrix Anal. Appl. 29(4), 2008).

    The taller orientation A, n x p, is factored twice.  Its rows are
    sorted by decreasing largest magnitude (Powell and Reid 1969; Cox and
    Higham 1998), and a column-pivoted QR gives Pi A P = Q R; an unpivoted
    QR then gives R^T = Q2 R2.  Jacobi sweeps (_jacobi_sweeps) rotate the
    p x p lower triangle L = R2^T to L V1 = W 2^e, so V = P Q2 V1 is
    orthonormal by construction and U = Pi^T Q W / |W|, a column whose
    singular value is exactly 0 staying zero.  L's columns are nearly
    orthogonal and graded from the start, so JACOBI_SWEEP_LIMIT = 30 sweeps
    are ample, also for steep spectra, zero rows, and rows graded so far
    apart that the smallest singular value lies beyond the double range of
    the largest; that family gets S to 1e-13 of S[0] only.

    Signs are fixed so that the largest-magnitude entry of each right
    vector is nonnegative (ties break to the lowest index), the paired
    left vector flipping with it.  Raises ConvergenceFailure if the sweep
    budget is exhausted, which the CLI reports with exit code 1.
    """
    X = as_matrix(x, "X")
    wide = X.shape[0] < X.shape[1]
    A = X.T if wide else X
    n, p = A.shape
    rows = np.argsort(-np.max(np.abs(A), axis=1), kind="stable")
    R, perm, outer = _preconditioning_qr(A[rows], pivot=True)
    R2, _, inner = _preconditioning_qr(R.T, pivot=False)
    W, e, V1 = _jacobi_sweeps(R2.T, max_sweeps)
    mantissas = np.sqrt(np.sum(W * W, axis=0))
    norms = np.ldexp(mantissas, e)
    order = np.argsort(-norms, kind="stable")
    S = norms[order]
    # C order throughout: the factors' layout sets the summation order of
    # later BLAS products, and so their bits
    B = np.zeros((n, p))
    np.divide(W[:, order], mantissas[order], out=B[:p], where=S > 0.0)
    U = np.empty((n, p))
    U[rows] = _reflect(outer, B)
    V = np.empty((p, p))
    V[perm] = _reflect(inner, V1[:, order])
    if wide:
        U, V = V, U
    peaks = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    signs = np.where(peaks < 0.0, -1.0, 1.0)
    return Svd(U=U * signs, S=S, V=V * signs)


def qr_orthonormal(a) -> np.ndarray:
    """Orthonormal basis of the column span: the Q of _preconditioning_qr
    without pivoting, with the diagonal of R made nonnegative (so a matrix
    that already has orthonormal columns is reproduced up to roundoff).

    Raises RankDeficient when any |R[k, k]| falls at or below QR_RANK_TOL
    times the Frobenius norm of the input.  The factorization runs on A
    scaled by a power of two into max |A| in [0.5, 1), so Q is bitwise the
    same for every power-of-two multiple of A.
    """
    A = as_matrix(a, "A")
    n, m = A.shape
    if n < m:
        raise DimensionMismatch(f"need rows >= cols, got {A.shape}")
    A = np.ldexp(A, -_exponent(A))
    R, _, reflectors = _preconditioning_qr(A, pivot=False)
    diag = np.diag(R)
    if np.any(np.abs(diag) <= QR_RANK_TOL * frobenius_norm(A)):
        raise RankDeficient(
            f"column span has numerical rank below {m} "
            f"(min |R_kk| = {float(np.min(np.abs(diag))):.3e})")
    return _reflect(reflectors, np.eye(n, m)) * np.sign(diag)
