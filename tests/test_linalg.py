"""Dense kernel tests: Jacobi SVD, Householder QR, norms.

Oracles are hand-computed or structural (reconstruction, orthogonality),
never a second call into the routine under test.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svdpert as sp
from svdpert.errors import ConvergenceFailure, DimensionMismatch, RankDeficient


# --------------------------------------------------------------------- svd

def test_svd_diagonal_descending_is_exact():
    f = sp.svd(np.diag([3.0, 1.0]))
    assert np.array_equal(f.S, np.array([3.0, 1.0]))
    assert np.array_equal(f.U, np.eye(2))
    assert np.array_equal(f.V, np.eye(2))


def test_svd_diagonal_ascending_sorts_descending():
    f = sp.svd(np.diag([1.0, 3.0]))
    assert np.array_equal(f.S, np.array([3.0, 1.0]))
    # leading right vector is the second axis after the sort
    assert np.array_equal(f.V[:, 0], np.array([0.0, 1.0]))
    assert np.array_equal(f.U[:, 0], np.array([0.0, 1.0]))


def test_svd_zero_matrix():
    f = sp.svd(np.zeros((3, 2)))
    assert np.array_equal(f.S, np.zeros(2))
    # left columns of exactly zero singular values stay zero
    assert np.array_equal(f.U, np.zeros((3, 2)))
    assert np.array_equal(f.V, np.eye(2))
    # wide input: the right columns stay zero instead
    f = sp.svd(np.zeros((2, 3)))
    assert np.array_equal(f.S, np.zeros(2))
    assert np.array_equal(f.U, np.eye(2))
    assert np.array_equal(f.V, np.zeros((3, 2)))
    f = sp.svd(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert np.array_equal(f.S, [1.0, 0.0])
    assert np.array_equal(f.U, np.eye(2))
    assert np.array_equal(f.V, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])


def test_svd_reconstruction_and_orthogonality_tall():
    x = sp.SplitMix64(3).normal_matrix(5, 3)
    f = sp.svd(x)
    assert f.U.shape == (5, 3) and f.V.shape == (3, 3)
    recon = f.U @ np.diag(f.S) @ f.V.T
    assert sp.frobenius_norm(recon - x) <= 1e-12 * sp.frobenius_norm(x)
    assert sp.frobenius_norm(f.U.T @ f.U - np.eye(3)) <= 1e-12 * 3
    assert sp.frobenius_norm(f.V.T @ f.V - np.eye(3)) <= 1e-12 * 3
    assert np.all(np.diff(f.S) <= 0) and np.all(f.S >= 0)


def test_svd_wide_input():
    x = sp.SplitMix64(11).normal_matrix(3, 5)
    f = sp.svd(x)
    assert f.U.shape == (3, 3) and f.V.shape == (5, 3) and f.S.shape == (3,)
    recon = f.U @ np.diag(f.S) @ f.V.T
    assert sp.frobenius_norm(recon - x) <= 1e-12 * sp.frobenius_norm(x)
    assert sp.frobenius_norm(f.V.T @ f.V - np.eye(3)) <= 1e-12 * 3


def test_svd_transpose_has_same_singular_values():
    x = sp.SplitMix64(7).normal_matrix(6, 4)
    s_tall = sp.svd(x).S
    s_wide = sp.svd(x.T).S
    assert np.all(np.abs(s_tall - s_wide) <= 1e-12)


def test_svd_sign_convention_largest_entry_nonnegative():
    x = sp.SplitMix64(19).normal_matrix(6, 4)
    for a in (x, x.T):
        f = sp.svd(a)
        for k in range(4):
            v = f.V[:, k]
            assert v[np.argmax(np.abs(v))] >= 0


def test_svd_sign_tie_resolved_toward_lowest_index():
    # symmetric 2x2 with trailing right vector (-1, 1)/sqrt(2): equal
    # magnitudes, so the tie picks index 0 and flips the pair
    x = np.array([[2.0, 1.0], [1.0, 2.0]])
    f = sp.svd(x)
    assert np.allclose(f.S, [3.0, 1.0], atol=1e-14)
    assert f.V[0, 1] > 0
    recon = f.U @ np.diag(f.S) @ f.V.T
    assert sp.frobenius_norm(recon - x) <= 1e-13


def test_svd_deterministic_bitwise():
    x = sp.SplitMix64(23).normal_matrix(7, 5)
    f1, f2 = sp.svd(x), sp.svd(x)
    assert np.array_equal(f1.U, f2.U)
    assert np.array_equal(f1.S, f2.S)
    assert np.array_equal(f1.V, f2.V)


def test_svd_sweep_limit_raises():
    with pytest.raises(ConvergenceFailure):
        sp.svd(np.ones((3, 3)), max_sweeps=1)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        sp.svd(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        sp.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        sp.svd(np.ones((0, 2)))
    # complex input is refused rather than silently losing its imaginary part
    with pytest.raises(ValueError):
        sp.svd(np.array([[1.0, 1.0j], [0.0, 1.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_svd_factorization_property(seed):
    gen = sp.SplitMix64(seed)
    n = 2 + seed % 5
    p = 2 + (seed // 7) % 4
    x = gen.normal_matrix(max(n, p), min(n, p))
    f = sp.svd(x)
    nmin = min(x.shape)
    assert f.U.shape == (x.shape[0], nmin) and f.V.shape == (x.shape[1], nmin)
    recon = f.U @ np.diag(f.S) @ f.V.T
    assert sp.frobenius_norm(recon - x) <= 1e-11 * max(sp.frobenius_norm(x), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-300, max_value=300),
       st.integers(min_value=0, max_value=2**32))
def test_svd_scale_safe_against_lapack(e, seed):
    # LAPACK (a test-only oracle) rescales internally, so it stays right
    # where unscaled Jacobi sweeps would overflow or underflow
    shape = [(6, 4), (4, 6), (5, 5), (7, 1)][seed % 4]
    x = sp.SplitMix64(seed).normal_matrix(*shape) * 10.0**e
    got = sp.svd(x).S
    ref = np.linalg.svd(x, compute_uv=False)
    # relative to the norm: LAPACK's small values carry absolute error only
    assert np.all(np.abs(got - ref) <= 1e-13 * ref[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-900, max_value=900),
       st.integers(min_value=0, max_value=2**32))
def test_svd_power_of_two_scaling_is_bitwise(k, seed):
    x = sp.SplitMix64(seed).normal_matrix(6, 4)
    for m in (x, x.T):
        base, scaled = sp.svd(m), sp.svd(m * 2.0**k)
        assert np.array_equal(scaled.S, 2.0**k * base.S)
        assert np.array_equal(scaled.U, base.U)
        assert np.array_equal(scaled.V, base.V)


def _exact_singular_values(x, dps=340):
    """Singular values from a dps-digit SVD (test-only oracle): 340 digits
    resolve a 1e-300 column next to an O(1) one, where LAPACK's drivers are
    only accurate relative to the largest value."""
    import mpmath

    with mpmath.workdps(dps):
        s = mpmath.svd_r(mpmath.matrix(x.tolist()), compute_uv=False)
        return np.array(sorted((float(v) for v in s), reverse=True))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-300, max_value=0),
       st.integers(min_value=0, max_value=2**32))
def test_svd_graded_columns_keep_relative_accuracy(e, seed):
    # one-sided Jacobi on B D, B well conditioned and D a column grading,
    # gets every singular value to high relative accuracy (Demmel and
    # Veselic 1992); the column Gram entries must not underflow on the way.
    # Wide inputs are graded in the caller's orientation, so the sweeps,
    # which run on the transpose, see row grading
    n, p = [(6, 4), (5, 5), (8, 3), (9, 5), (4, 6), (5, 9)][seed % 6]
    r = min(n, p)
    spectrum = tuple(3.0 * 0.7**j for j in range(r))
    x = sp.matrix_with_spectrum(sp.SpectrumSpec(max(n, p), r, spectrum, seed))
    if n < p:
        x = x.T
    x[:, p // 2:] *= 10.0**e
    got = sp.svd(x).S
    ref = _exact_singular_values(x)
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("shape, seed, columns, scale", [
    *(((3, 5), s, slice(-1, None), 1e300) for s in (0, 1, 4)),
    *(((7, 20), s, slice(-1, None), 1e300) for s in (0, 1, 4)),
    *(((5, 9), s, slice(None, None, 2), 1e-200) for s in range(6)),
])
def test_svd_wide_graded_columns_keep_relative_accuracy(shape, seed, columns,
                                                        scale):
    # a 60-digit reference cannot resolve O(1) singular values next to
    # 1e300 or 1e-200 columns and reads these outputs 19-588% off; at 340
    # digits they agree to ulps
    x = sp.SplitMix64(seed).normal_matrix(*shape)
    x[:, columns] *= scale
    got = sp.svd(x).S
    ref = _exact_singular_values(x)
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("scale", [1e-100, 1e-160, 1e-300])
def test_svd_tiny_trailing_columns(scale):
    # squared norms of 1e-100 columns multiply to below the double range;
    # at 1e-160 the squares themselves are subnormal
    x = sp.SplitMix64(0).normal_matrix(6, 4)
    x[:, 2:] *= scale
    got = sp.svd(x).S
    assert np.all(np.abs(got - _exact_singular_values(x)) <= 1e-13 * got)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-1000, max_value=-1))
@example(j=-536)
@example(j=-664)
@example(j=-997)
def test_svd_cancelled_column_keeps_its_singular_value(j):
    # the first rotation cancels column 0 to ~2^j of its starting scale, so
    # its mantissa's squared norm underflows unless it is renormalized
    # before the next sweep reads it
    x = np.array([[1.0, 1.0], [2.0**j, 0.0]])
    for m in (x, x.T):
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.all(np.abs(sp.svd(m).S - ref) <= 1e-14 * ref)


def test_svd_cancelled_column_next_to_an_untouched_one():
    x = np.array([[3.0, 3.0, 0.0], [1e-300, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for m in (x, x.T):
        ref = np.linalg.svd(m, compute_uv=False)
        assert ref[2] > 7e-301
        assert np.all(np.abs(sp.svd(m).S - ref) <= 1e-14 * ref)


@pytest.mark.parametrize("seed", range(6))
def test_svd_row_graded_input_keeps_orthonormal_factors(seed):
    # a row at 1e300 puts one huge entry in every column; the first sweep
    # cancels the columns it rotates to ~1e-300 of their starting scale
    x = sp.SplitMix64(seed).normal_matrix(5, 3)
    x[-1] *= 1e300
    for m in (x, x.T):
        f = sp.svd(m)
        assert sp.frobenius_norm(f.U.T @ f.U - np.eye(3)) <= 1e-13
        assert sp.frobenius_norm(f.V.T @ f.V - np.eye(3)) <= 1e-13
        recon = f.U @ np.diag(f.S) @ f.V.T
        assert sp.frobenius_norm(recon - m) <= 1e-14 * sp.frobenius_norm(m)


@pytest.mark.xfail(raises=ConvergenceFailure, reason=(
    "a row left as rounding residue of a far larger one stays parallel to "
    "it; QR preconditioning with pivoting (ROADMAP item 2) is the likely fix"))
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("seed", [5, 8])
def test_svd_row_graded_beyond_double_range(seed, transpose):
    # the 3x5 has columns scaled by 2^-997 .. 2^997 and is swept as its
    # transpose, so the sweeps see row grading in both orientations; the
    # smallest singular value (~5e-101) lies more than the double range
    # below the largest (~3e300).  At 340 digits the reference reads
    # sigma_3 of seed 5 as 2.2e-100 against 5.0e-101.
    x = np.ldexp(sp.SplitMix64(seed).normal_matrix(3, 5),
                 [-332, 997, -664, -997, 332])
    if transpose:
        x = x.T
    f = sp.svd(x)
    ref = _exact_singular_values(x, dps=800)
    assert np.all(np.abs(f.S - ref) <= 1e-13 * ref[0])
    assert sp.frobenius_norm(f.U.T @ f.U - np.eye(3)) <= 1e-13
    assert sp.frobenius_norm(f.V.T @ f.V - np.eye(3)) <= 1e-13


def test_svd_orthogonal_tiny_column_is_exact():
    f = sp.svd(np.diag([1.0, 1e-160]))
    assert np.array_equal(f.S, np.array([1.0, 1e-160]))
    assert np.array_equal(f.U, np.eye(2))
    assert np.array_equal(f.V, np.eye(2))


# ---------------------------------------------------------------------- qr

def test_qr_single_column_hand_case():
    q = sp.qr_orthonormal(np.array([[3.0], [4.0]]))
    assert np.allclose(q, np.array([[0.6], [0.8]]), atol=1e-15)


def test_qr_orthonormal_input_is_reproduced():
    base = sp.svd(sp.SplitMix64(5).normal_matrix(6, 3)).U
    q = sp.qr_orthonormal(base)
    # same column span, orthonormal, columns match up to machine precision
    assert sp.frobenius_norm(q.T @ q - np.eye(3)) <= 1e-13
    assert sp.frobenius_norm(q @ (q.T @ base) - base) <= 1e-13


def test_qr_orthogonality_seeded():
    a = sp.SplitMix64(29).normal_matrix(6, 6)
    q = sp.qr_orthonormal(a)
    assert q.shape == (6, 6)
    assert sp.frobenius_norm(q.T @ q - np.eye(6)) <= 1e-13


@pytest.mark.parametrize("shape", [(300, 150), (600, 4), (1, 1)])
def test_qr_thin_q_against_lapack(shape):
    a = sp.SplitMix64(31).normal_matrix(*shape)
    q = sp.qr_orthonormal(a)
    assert q.shape == shape
    assert np.max(np.abs(q.T @ q - np.eye(shape[1]))) <= 1e-13
    # test-only oracle: LAPACK's QR with the diagonal of R made nonnegative
    q_ref, r_ref = np.linalg.qr(a)
    signs = np.sign(np.diag(r_ref))
    r = q.T @ a
    scale = sp.frobenius_norm(a)
    assert np.max(np.abs(q - q_ref * signs)) <= 1e-13
    assert np.max(np.abs(r - signs[:, None] * r_ref)) <= 1e-13 * scale
    assert np.max(np.abs(q @ np.triu(r) - a)) <= 1e-13 * scale


def test_qr_rank_deficient_raises():
    with pytest.raises(RankDeficient):
        sp.qr_orthonormal(np.array([[1.0, 2.0], [2.0, 4.0]]))
    # a zero column gets no reflector, so its R[k, k] stays exactly zero
    with pytest.raises(RankDeficient, match=r"min \|R_kk\| = 0\.000e\+00"):
        sp.qr_orthonormal(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    a = sp.SplitMix64(31).normal_matrix(300, 150)
    a[:, 149] = a[:, 3] - 2.0 * a[:, 70]
    with pytest.raises(RankDeficient):
        sp.qr_orthonormal(a)


def test_qr_wide_raises():
    with pytest.raises(DimensionMismatch):
        sp.qr_orthonormal(np.ones((2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-900, max_value=900),
       st.integers(min_value=0, max_value=2**32))
@example(j=900, seed=3)
@example(j=-900, seed=3)
def test_qr_power_of_two_scaling_is_bitwise(j, seed):
    a = sp.SplitMix64(seed).normal_matrix(7, 4)
    assert np.array_equal(sp.qr_orthonormal(a * 2.0**j), sp.qr_orthonormal(a))


@pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300])
def test_qr_far_scaled_identity(scale):
    # reflector norms overflowed (or underflowed) here before the prescale
    q = sp.qr_orthonormal(scale * np.eye(3))
    assert np.max(np.abs(q - np.eye(3))) <= 1e-15


# ------------------------------------------------------------------- norms

def test_frobenius_norm_hand_case():
    assert sp.frobenius_norm(np.array([[3.0, 4.0]])) == 5.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-900, max_value=900),
       st.integers(min_value=0, max_value=2**32))
@example(j=900, seed=5)
@example(j=-900, seed=5)
def test_frobenius_norm_power_of_two_scaling_is_exact(j, seed):
    a = sp.SplitMix64(seed).normal_matrix(5, 3)
    assert sp.frobenius_norm(a * 2.0**j) == math.ldexp(sp.frobenius_norm(a), j)


def test_frobenius_norm_far_scaled_entries():
    # the unscaled sum of squares gives inf and 0.0 here
    assert sp.frobenius_norm(np.full((2, 2), 1e200)) == 2e200
    assert sp.frobenius_norm(np.full((2, 2), 1e-170)) == 2e-170
    assert sp.frobenius_norm(np.zeros((2, 3))) == 0.0
