"""Dense real linear algebra kernels.

Matrices are plain float64 numpy arrays.  Everything here is deterministic:
fixed sweep orders, stable sorts, and a fixed sign convention, so repeated
calls on the same input are bitwise identical.

The SVD is a thin one-sided Jacobi preconditioned by two QR factorizations,
``X = U @ np.diag(S) @ V.T`` with U n x r, V p x r, ``r = min(n, p)``, and
no complement basis (callers use ``I - U U^T``).  The same sweep check and
rotation step, on the pairs that hold one pivot column of a stack of
matrices, give one exact singular triplet per matrix: all that a
convergence ladder's rungs read.  Neither knows its caller: no step turns
a matrix that its check ended, so the next check ends it again.  Each
column is a mantissa times its own power of two, renormalized every
sweep, so a column far below the largest one, or cancelled far below its
starting scale, keeps full relative accuracy; the scaling is exact for
entries that neither are nor become subnormal.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, RankDeficient, SpectrumOverflow

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
# 2^-k for k < 512, exact; for d >= -511, 2^d and 2^(2d) are normal doubles
_POW2 = [math.ldexp(1.0, -k) for k in range(512)]


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


class Svd(NamedTuple):
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
    frobenius_norm(2^j A) == 2^j frobenius_norm(A) exactly.  A norm beyond
    the double range raises SpectrumOverflow."""
    A = as_matrix(a, "A")
    e = _exponent(A)
    scaled = np.ldexp(A, -e)
    root = float(np.sqrt(np.sum(scaled * scaled)))
    if math.frexp(root)[1] + e > 1024:
        raise SpectrumOverflow("the Frobenius norm lies beyond the double range")
    return math.ldexp(root, e)


def _rotation(a: float, b: float, c: float, d: int):
    """Jacobi rotation of the columns x = 2^ei wi and y = 2^ej wj, given
    the mantissa Gram entries a = wi.wi, b = wj.wj, c = wi.wj and
    d = ej - ei.  Returns (cs, sn * 2^d, sn, sn / 2^d): the rotation
    x' = cs x - sn y, y' = sn x + cs y, and the factors of its mantissa form
    wi' = cs wi - (sn 2^d) wj, wj' = (sn / 2^d) wi + cs wj.  The angle is
    tan = t = sign(zeta) / (|zeta| + hypot(1, zeta)), zeta = (y.y - x.x) /
    (2 x.y), evaluated as q = t / 2^d from z = 2^d zeta with x the
    larger-scaled column (d <= 0), so that no factor above 1 is formed; a
    pair with d > 0 is mirrored, which negates the sine.  The scalings by
    2^d and 2^(2d) are products by exact powers of two from _POW2 while
    2^(2d) is normal, math.ldexp beyond: both round the same exact value."""
    mirror = d > 0
    if mirror:
        a, b, d = b, a, -d
    if d >= -511:
        s = _POW2[-d]
        s2 = s * s
        z = (b * s2 - a) / (2.0 * c)
        q = math.copysign(1.0, z) / (abs(z) + math.hypot(s, z))
        t = q * s
    else:
        s2 = None  # 2^(2d) is subnormal or 0
        z = (math.ldexp(b, 2 * d) - a) / (2.0 * c)
        q = math.copysign(1.0, z) / (abs(z) + math.hypot(math.ldexp(1.0, d), z))
        t = math.ldexp(q, d)
    cs = 1.0 / math.sqrt(1.0 + t * t)
    big = cs * q
    sn, small = cs * t, math.ldexp(big, 2 * d) if s2 is None else big * s2
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


def _sweep_start(W, e, I, J):
    """Start a sweep: rescale each row of W in place so that its largest
    entry lies in [0.5, 1), adding the shifts to e, and return (turns, the
    rescaled rows' squares), turns[r] whether _jacobi_step would rotate one
    of the pairs (I[r, k], J[r, k]), top row first, of the rescaled rows.
    No pair turns before the first that would, so turns[r] is whether the
    sweep rotates matrix r; one it ends keeps its rows and stays ended.
    The chunks of pairs double until every matrix has one that turns."""
    _, shifts = np.frexp(np.max(np.abs(W), axis=1))
    np.ldexp(W, -shifts[:, None], out=W)
    e += shifts
    squares = np.add.reduce(W * W, axis=1)
    norms = np.sqrt(squares)
    turns, cells = np.zeros(len(I), dtype=bool), len(I) * W.shape[1]
    k, step = 0, max(1, (_CHECK_CELLS >> 4) // cells)
    while k < I.shape[1] and not turns.all():
        i, j = I[:, k:k + step], J[:, k:k + step]
        c = np.add.reduce(W.take(i, axis=0) * W.take(j, axis=0), axis=2)
        turns |= (np.abs(c) > JACOBI_TOL * norms[i] * norms[j]).any(axis=1)
        k, step = k + step, min(2 * step, max(1, _CHECK_CELLS // cells))
    return turns, squares


def _jacobi_step(WV, e, top, bottom, b=None):
    """Rotate the disjoint row pairs (top[k], bottom[k]) of WV, top and
    bottom basic slices: WV[0] holds W's rows, mantissas with exponents e,
    and WV[1] V's, so one broadcast rotates both.  A pair turns, by
    _rotation on Python floats, where |c| > JACOBI_TOL sqrt(a) sqrt(b), the
    test of _sweep_start on the same bits; b, the bottom rows' squares, is
    summed here unless given (a row's square from _sweep_start has the same
    bits until it turns).  Returns the (top, bottom) rows: new ones, the
    pairs that do not turn rotated by the identity, or WV's own if none do."""
    x, y = WV[0, top], WV[0, bottom]
    products = np.empty((3 if b is None else 2, *x.shape))
    np.multiply(x, x, out=products[0])
    np.multiply(x, y, out=products[1])
    if b is None:
        np.multiply(y, y, out=products[2])
    G = np.add.reduce(products, axis=2).tolist()
    squares = G[2] if b is None else b.tolist()
    factors, turned = [], False
    for a, b, c, d in zip(G[0], squares, G[1], (e[bottom] - e[top]).tolist()):
        if abs(c) > JACOBI_TOL * math.sqrt(a) * math.sqrt(b):
            factors.extend(_rotation(a, b, c, d))
            turned = True
        else:
            factors.extend((1.0, 0.0, 0.0, 0.0))
    if not turned:
        return WV[:, top], WV[:, bottom]
    F = np.array(factors).reshape(-1, 4).T[..., None]
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
        WV, e = np.zeros((2, m, p)), np.zeros(m, dtype=int)
        WV[:, ring[:p]] = L.T, np.eye(p)
        for _ in range(max_sweeps):
            turns, _ = _sweep_start(WV[0], e, I, J)
            if not turns[0]:
                return WV[0, ring[:p]].T, e[ring[:p]], WV[1, ring[:p]].T
            for _ in range(m - 1):
                x, y = _jacobi_step(WV, e, slice(h), slice(h, m))
                WV = np.concatenate(
                    (x[:, :1], y[:, :1], x[:, 1:-1], y[:, 1:], x[:, -1:]), axis=1)
                e = e[turn]
    raise ConvergenceFailure(
        f"one-sided Jacobi did not converge in {max_sweeps} sweeps")


def _pivot_sweeps(X: np.ndarray, pivot: int, max_sweeps: int = JACOBI_SWEEP_LIMIT):
    """One exact singular triplet of each n x p matrix of a stack:
    _jacobi_sweeps' sweeps over the pairs (pivot, j) alone, until the pivot
    column is orthogonal to every other, so V[:, pivot] is an exact right
    singular vector, W[:, pivot] scaled by 2^e its value times its left
    vector (Demmel and Veselic 1992).  The matrices move in lockstep, column
    j of matrix r and of its V (zero-padded to one length) in row r p + j
    of one array: a sweep is one _sweep_start and one _jacobi_step per j on
    the rows pivot::p and j::p.  No step turns a matrix its check ended, so
    each gets the bits it gets alone.  Yields (sigma, u, y = V[:, pivot]) per
    matrix in order once all are solved, raising ConvergenceFailure on
    reaching one that the last check still turns.
    """
    count, n, p = X.shape
    WV = np.zeros((2, count * p, max(n, p)))
    WV[0, :, :n] = np.swapaxes(X, 1, 2).reshape(count * p, n)
    WV[1, :, :p] = np.tile(np.eye(p), (count, 1))
    e, turns = np.zeros(count * p, dtype=int), np.ones(count, dtype=bool)
    others = [j for j in range(p) if j != pivot]
    rows = p * np.arange(count)[:, None]
    I, J = np.repeat(rows + pivot, p - 1, axis=1), rows + others
    top = slice(pivot, None, p)
    for _ in range(max_sweeps):
        turns, squares = _sweep_start(WV[0], e, I, J)
        if not turns.any():
            break
        for j in others:  # row j::p turns at this step only
            WV[:, top], WV[:, j::p] = _jacobi_step(
                WV, e, top, slice(j, None, p), squares[j::p])
    for turning, w, y, exponent in zip(turns, WV[0, top, :n], WV[1, top, :p], e[top]):
        if turning:
            raise ConvergenceFailure(
                f"one-sided Jacobi did not converge in {max_sweeps} sweeps")
        # not w @ w, whose bits follow w's alignment; a zero w is yielded as is
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
    own R.
    """
    Rt = np.array(A.T, dtype=float, order="C")  # a column is a contiguous row
    m, n = Rt.shape
    perm, reflectors = np.arange(m), []
    for k in range(m):
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
        Rt[k + 1:, k:] -= (beta * (Rt[k + 1:, k:] @ v))[:, None] * v
        Rt[k, k] = math.ldexp(alpha, e)
        Rt[k, k + 1:] = 0.0
        reflectors.append((k, v, beta))
    return Rt[:, :m].T, perm, reflectors


def _reflect(reflectors, B: np.ndarray) -> np.ndarray:
    """H_a ... H_b B, in place, for a list of _preconditioning_qr's
    reflectors (k, v, beta) in any order, applied one at a time, last
    first: H = I - beta v v^T acts on rows k and below."""
    for k, v, beta in reversed(reflectors):
        B[k:] -= np.outer(v, beta * (v @ B[k:]))
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
    left vector flipping with it.  The factorization is bitwise
    equivariant under power-of-two scaling, so an input in the top
    binades, whose QR products could overflow, is factored scaled down by
    a few powers of two and its S scaled back.  Raises SpectrumOverflow
    (exit code 2) if S[0] lies beyond the double range, and
    ConvergenceFailure (exit code 1) if the sweep budget is exhausted.
    """
    X = as_matrix(x, "X")
    wide = X.shape[0] < X.shape[1]
    A = X.T if wide else X
    n, p = A.shape
    peaks = np.max(np.abs(A), axis=1)
    rows = np.argsort(-peaks, kind="stable")
    # 2^-shift A keeps the QRs' products, below 4 n p max|A|, finite
    shift = max(0, _exponent(peaks) + (4 * n * p).bit_length() - 1024)
    R, perm, outer = _preconditioning_qr(np.ldexp(A[rows], -shift), pivot=True)
    R2, _, inner = _preconditioning_qr(R.T, pivot=False)
    W, e, V1 = _jacobi_sweeps(R2.T, max_sweeps)
    mantissas = np.sqrt(np.sum(W * W, axis=0))
    e = e + shift
    if shift and np.max(np.frexp(mantissas)[1] + e) > 1024:
        raise SpectrumOverflow("the largest singular value of X lies beyond "
                               "the double range")
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
    """Orthonormal basis of the column span: the Q of an unpivoted
    Householder QR, LAPACK's dgeqrf and dorgqr through np.linalg.qr, with
    the diagonal of R made nonnegative (so a matrix that already has
    orthonormal columns is reproduced up to roundoff).  svd keeps its own
    QRs, _preconditioning_qr and _reflect, so its bits do not follow LAPACK.

    The factorization runs on A scaled by a power of two into max |A| in
    [0.5, 1), so Q is bitwise the same for every power-of-two multiple of
    A; there frobenius_norm(A) is the plain root of A's sum of squares,
    and any |R[k, k]| at or below QR_RANK_TOL times it raises
    RankDeficient.  np.linalg.qr copies its input into its own
    Fortran-order buffer, so Q does not follow A's layout either.
    """
    A = as_matrix(a, "A")
    n, m = A.shape
    if n < m:
        raise DimensionMismatch(f"need rows >= cols, got {A.shape}")
    A = np.ldexp(A, -_exponent(A))
    Q, R = np.linalg.qr(A)
    diag = np.diag(R)
    if np.any(np.abs(diag) <= QR_RANK_TOL * float(np.sqrt(np.sum(A * A)))):
        raise RankDeficient(
            f"column span has numerical rank below {m} "
            f"(min |R_kk| = {float(np.min(np.abs(diag))):.3e})")
    return np.multiply(Q, np.sign(diag), out=Q)
