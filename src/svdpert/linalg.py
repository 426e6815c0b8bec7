"""Dense real linear algebra kernels.

Matrices are plain float64 numpy arrays.  Everything here is deterministic:
fixed sweep orders, stable sorts, and a fixed sign convention, so repeated
calls on the same input are bitwise identical.

The SVD is a thin one-sided Jacobi preconditioned by two QR factorizations:
the taller orientation (the input is transposed internally when rows <
cols) is reduced to a p x p triangle whose columns are then rotated
pairwise until all mutual Gram entries vanish relative to the column
norms, so ``X = U @ np.diag(S) @ V.T`` with U n x r, V p x r and
``r = min(n, p)``.  No complement of the left basis is built: callers that
need it use the projector ``I - U U^T`` instead.  The same sweep kernel,
restricted to the pairs that contain one pivot column, yields a single
exact singular triplet, which is all a convergence-ladder rung reads.
Each column is carried as a mantissa times its own power of two,
renormalized every sweep, so a column far below the largest one, or
cancelled far below its starting scale, keeps full relative accuracy.  The
scaling is exact for entries that neither are nor become subnormal, so it
keeps the sweeps clear of overflow and underflow without moving a bit.
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
# From this many columns on, svd's Jacobi sweeps rotate each round of
# disjoint pairs at once; below it they rotate pair by pair, where a
# round's fixed numpy cost outweighs its few rotations
_BATCH_MIN_WIDTH = 10


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


def _round_robin(p: int) -> list:
    """Brent and Luk's round-robin schedule: p - 1 rounds (p when p is odd)
    of floor(p / 2) disjoint pairs, visiting every pair once.  The columns
    sit on a ring, padded with a dummy p when p is odd; a round pairs the
    first half of the ring with the second half reversed, and then every
    place but the first turns one step."""
    m = p + p % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = zip(ring[:m // 2], ring[:m // 2 - 1:-1])
        rounds.append([pair for pair in pairs if p not in pair])
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return rounds


def _rotate_pairs(W, V, exps, pairs) -> bool:
    """Rotate each pair of rows (columns of the swept matrix) in turn;
    returns whether any pair was rotated."""
    rotated = False
    for i, j in pairs:
        wi = W[i]
        wj = W[j]
        a = float(wi @ wi)
        b = float(wj @ wj)
        c = float(wi @ wj)
        if abs(c) <= JACOBI_TOL * math.sqrt(a) * math.sqrt(b):
            continue
        rotated = True
        cs, sn, s_up, s_down = _rotation(a, b, c, exps[j] - exps[i])
        W[i], W[j] = cs * wi - s_up * wj, s_down * wi + cs * wj
        vi = V[i]
        vj = V[j]
        V[i], V[j] = cs * vi - sn * vj, sn * vi + cs * vj
    return rotated


def _batched_sweep(W, V, e):
    """One sweep of _round_robin's rounds, each rotated at once: one Gram
    step and one rotation over its disjoint pairs.  Returns (W, V, e,
    rotated).

    The rows (columns of the swept matrix, an even count) are kept in the
    order of the schedule's ring, so a round's pairs are the first half
    and the second half reversed, and turning the ring is one
    concatenation per array; after the m - 1 rounds of a sweep the rows
    are back in their own order.  The angles are _rotation's, each pair ordered so that its
    first column has the larger exponent, which is how _rotation mirrors a
    pair itself; a pair already orthogonal to JACOBI_TOL gets the
    identity.
    """
    h = len(e) // 2
    rotated = False
    for _ in range(2 * h - 1):
        squares = np.add.reduce(W * W, axis=1)
        norms = np.sqrt(squares)
        top, bottom = W[:h], W[h:][::-1]
        v_top, v_bottom = V[:h], V[h:][::-1]
        c = np.add.reduce(top * bottom, axis=1)
        active = np.abs(c) > JACOBI_TOL * norms[:h] * norms[h:][::-1]
        if active.any():
            rotated = True
            d = e[h:][::-1] - e[:h]
            mirror = d > 0
            first = np.where(mirror, squares[h:][::-1], squares[:h])
            second = np.where(mirror, squares[:h], squares[h:][::-1])
            d = -np.abs(d)
            z = (np.ldexp(second, 2 * d) - first) / (2.0 * np.where(active, c, 1.0))
            q = np.copysign(1.0, z) / (np.abs(z) + np.hypot(np.ldexp(1.0, d), z))
            cs = 1.0 / np.sqrt(1.0 + np.square(np.ldexp(q, d)))
            big = cs * q * np.where(active, np.where(mirror, -1.0, 1.0), 0.0)
            small = np.ldexp(big, 2 * d)
            cs, sn, s_up, s_down = (f[:, None] for f in (
                np.where(active, cs, 1.0), np.ldexp(big, d),
                np.where(mirror, big, small), np.where(mirror, small, big)))
            top, bottom = cs * top - s_up * bottom, s_down * top + cs * bottom
            v_top, v_bottom = cs * v_top - sn * v_bottom, sn * v_top + cs * v_bottom
        W, V, e = (np.concatenate((t[:1], b[:1], t[1:], b[:0:-1])) for t, b in (
            (top, bottom), (v_top, v_bottom), (e[:h], e[h:][::-1])))
    return W, V, e, rotated


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
    pivot None a sweep runs the rounds of _round_robin and ends with all
    columns mutually orthogonal.  From _BATCH_MIN_WIDTH columns on, each
    round is rotated at once (_batched_sweep); below it, where a round's
    fixed numpy cost outweighs its few rotations, pair by pair.  With pivot
    k a sweep visits only the pairs that contain k, one at a time, p - 1
    rotations, and ends with column k orthogonal to every other column:
    row k of (X V)^T (X V) is then zero off the diagonal, so V[:, k] is an
    exact right singular vector of X with singular value 2^e[k] |W[:, k]|
    and left vector W[:, k] / |W[:, k]| (Demmel and Veselic 1992).
    """
    p = X.shape[1]
    batched = pivot is None and p >= _BATCH_MIN_WIDTH
    if pivot is not None:
        pairs = [(pivot, j) for j in range(p) if j != pivot]
    elif not batched:
        pairs = [pair for pairs in _round_robin(p) for pair in pairs]
    # row k is column k, so every gather and update is contiguous; the
    # batched sweep pads an odd count with a zero row, which no pair rotates
    m = p + p % 2 if batched else p
    W = np.zeros((m, X.shape[0]))
    W[:p] = X.T
    V = np.eye(m, p)
    e = np.zeros(m, dtype=int)
    for _ in range(max_sweeps):
        _, exponents = np.frexp(np.max(np.abs(W), axis=1))
        W = np.ldexp(W, -exponents[:, None])
        e += exponents
        if batched:
            W, V, e, rotated = _batched_sweep(W, V, e)
        else:
            rotated = _rotate_pairs(W, V, e.tolist(), pairs)
        if not rotated:
            return W[:p].T, e[:p], V[:p].T
    raise ConvergenceFailure(
        f"one-sided Jacobi did not converge in {max_sweeps} sweeps"
    )


def _preconditioning_qr(A: np.ndarray, pivot: bool):
    """Householder QR of an n x m matrix with n >= m, with or without
    column pivoting: returns the m x m upper triangle R, the column order
    perm with A[:, perm] = Q R, and the reflectors (k, v, beta) from which
    _reflect applies Q = H_0 ... H_{m-1} [I_m; 0].

    The pivot is the largest column norm of the trailing block, ties to
    the lowest index.  Column norms and reflector norms are taken in
    power-of-two-scaled form, as frobenius_norm takes its norm, so
    columns graded to 1e+-300 neither overflow nor underflow.  A column
    whose part below the diagonal is already zero gets no reflector, so a
    diagonal matrix is its own R.
    """
    R = np.array(A, dtype=float)
    n, m = R.shape
    perm = np.arange(m)
    reflectors = []
    for k in range(m):
        if pivot and k < m - 1:
            T = R[k:, k:]
            peaks = np.max(np.abs(T), axis=0)
            _, e = np.frexp(peaks)
            squares = np.sum(np.square(np.ldexp(T, -e)), axis=0)
            norms = np.ldexp(np.sqrt(squares), e - e[np.argmax(peaks)])
            j = k + int(np.argmax(norms))
            if j != k:
                R[:, [k, j]] = R[:, [j, k]]
                perm[[k, j]] = perm[[j, k]]
        x = R[k:, k]
        if not x[1:].any():
            continue
        e = _exponent(x)
        v = np.ldexp(x, -e)
        alpha = -math.copysign(math.sqrt(float(v @ v)), v[0])
        v[0] -= alpha
        beta = 2.0 / float(v @ v)
        R[k:, k + 1:] -= np.outer(v, beta * (v @ R[k:, k + 1:]))
        R[k, k] = math.ldexp(alpha, e)
        R[k + 1:, k] = 0.0
        reflectors.append((k, v, beta))
    return R[:m], perm, reflectors


def _reflect(reflectors, B: np.ndarray) -> np.ndarray:
    """H_0 ... H_{m-1} B for _preconditioning_qr's reflectors, in place."""
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
    orthogonal and graded from the start, so a sweep budget of
    JACOBI_SWEEP_LIMIT = 30 is ample: a 40x20 matrix with singular values
    3 * 0.7^j takes 6 sweeps, against 10 without the QRs, and three
    inputs that never converged without them now do: steep spectra at
    200x100, fewer nonzero rows than columns (a square matrix with a zero
    row), and rows graded so far apart that the smallest singular value
    lies beyond the double range of the largest.  That last family gets
    S to 1e-13 of S[0], not to relative accuracy in its smallest values.

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
