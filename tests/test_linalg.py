"""Dense kernel tests: Jacobi SVD, Householder QR, norms.

Oracles are hand-computed or structural (reconstruction, orthogonality),
never a second call into the routine under test.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import svdpert as sp
import svdpert.linalg
from svdpert.errors import (
    ConvergenceFailure, DimensionMismatch, RankDeficient, SpectrumOverflow)
from svdpert.linalg import (
    JACOBI_SWEEP_LIMIT, _pivot_sweeps, _preconditioning_qr, _reflect, _rotation,
    _round_robin)


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
    # a rank-one matrix such as np.ones((3, 3)) is diagonal after the QRs
    # and converges in one sweep; a Gaussian one needs more
    with pytest.raises(ConvergenceFailure):
        sp.svd(sp.SplitMix64(0).normal_matrix(6, 4), max_sweeps=1)


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


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 9), st.integers(1, 9)),
       st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=1000, max_value=1023))
# S[0] is 1.785e308, finite, where the QR's products overflow unscaled
@example(shape=(5, 3), seed=0, j=1022)
@example(shape=(5, 3), seed=10, j=1022)  # S[0] beyond the double range
def test_svd_top_binade_is_bitwise_scaled_or_overflows(shape, seed, j):
    x = sp.SplitMix64(seed).normal_matrix(*shape)
    # an input entry beyond the double range is not a case of this test
    with np.errstate(over="ignore"):
        scaled = np.ldexp(x, j)
    assume(np.isfinite(scaled).all())
    base = sp.svd(x)
    if math.frexp(float(base.S[0]))[1] + j > 1024:
        with pytest.raises(SpectrumOverflow, match="beyond the double range"):
            sp.svd(scaled)
        return
    f = sp.svd(scaled)
    assert np.array_equal(f.S, np.ldexp(base.S, j))
    assert np.array_equal(f.U, base.U)
    assert np.array_equal(f.V, base.V)


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
    # wide enough for the batched rounds, in either orientation
    ((12, 24), 0, slice(-1, None), 1e300),
    ((24, 12), 0, slice(None, None, 2), 1e-200),
    ((16, 11), 0, slice(5, None), 1e-300),
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


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("seed, shape", [(5, (3, 5)), (8, (3, 5)), (0, (10, 14))],
                         ids=["5", "8", "0-10x14"])
def test_svd_row_graded_beyond_double_range(seed, shape, transpose):
    # the 3x5 has columns scaled by 2^-997 .. 2^997 and is swept as its
    # transpose, so the sweeps see row grading in both orientations; the
    # smallest singular value (~5e-101) lies more than the double range
    # below the largest (~3e300).  At 340 digits the reference reads
    # sigma_3 of seed 5 as 2.2e-100 against 5.0e-101.  The bound is
    # normwise: relative to itself, sigma_3 is 1.2e-2 (seed 8) to 0.39
    # (seed 5) off.  The 10x14 tiles the same exponents and is swept in
    # batched rounds
    x = np.ldexp(sp.SplitMix64(seed).normal_matrix(*shape),
                 np.resize([-332, 997, -664, -997, 332], shape[1]))
    if transpose:
        x = x.T
    f = sp.svd(x)
    ref = _exact_singular_values(x, dps=800)
    r = min(shape)
    assert np.all(np.abs(f.S - ref) <= 1e-13 * ref[0])
    assert sp.frobenius_norm(f.U.T @ f.U - np.eye(r)) <= 1e-13
    assert sp.frobenius_norm(f.V.T @ f.V - np.eye(r)) <= 1e-13


@pytest.mark.parametrize("shape, zero_rows", [
    ((3, 3), [0]), ((4, 4), [0]), ((6, 6), [0]), ((10, 10), [0]),
    ((5, 3), [0, 1, 2]), ((6, 4), [0, 1, 2]),
])
def test_svd_fewer_nonzero_rows_than_columns(shape, zero_rows):
    # seeds loop inside one case; Jacobi without the QR preconditioning
    # converged on none but 3x3 seed 2
    for seed in range(5):
        x = sp.SplitMix64(seed).normal_matrix(*shape)
        x[zero_rows] = 0.0
        f = sp.svd(x)
        ref = np.linalg.svd(x, compute_uv=False)
        assert np.all(np.abs(f.S - ref) <= 1e-13 * ref[0])
        # the Svd contract leaves U's columns of exactly zero values zero
        u = f.U[:, f.S > 0.0]
        assert sp.frobenius_norm(u.T @ u - np.eye(u.shape[1])) <= 1e-13
        assert sp.frobenius_norm(f.V.T @ f.V - np.eye(shape[1])) <= 1e-13


def test_svd_steep_spectrum_converges_within_twelve_sweeps():
    # 18-19 sweeps without the QR preconditioning, 6 with it
    spec = sp.SpectrumSpec(n=100, p=50, seed=0, singular_values=tuple(
        3.0 * 0.7**j for j in range(50)))
    x = sp.matrix_with_spectrum(spec)
    f = sp.svd(x, max_sweeps=12)
    ref = np.linalg.svd(x, compute_uv=False)
    assert np.all(np.abs(f.S - ref) <= 1e-13 * ref[0])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=24),
       st.integers(min_value=1, max_value=24),
       st.integers(min_value=0, max_value=2**32),
       st.sets(st.integers(min_value=0, max_value=23)))
@example(n=5, p=1, seed=0, zero_rows={1, 3})
@example(n=1, p=12, seed=0, zero_rows=set())
@example(n=12, p=12, seed=1, zero_rows={0, 5})
@example(n=4, p=4, seed=2, zero_rows={0, 1, 2, 3})
def test_svd_any_shape_against_lapack(n, p, seed, zero_rows):
    # tall, wide, square and p = 1, with zero rows, on both sides of the
    # batched-sweep width; the factor the sweeps do not produce is
    # orthonormal by construction
    x = sp.SplitMix64(seed).normal_matrix(n, p)
    x[[r for r in zero_rows if r < n]] = 0.0
    f = sp.svd(x)
    ref = np.linalg.svd(x, compute_uv=False)
    assert np.all(np.abs(f.S - ref) <= 1e-13 * ref[0])
    q = f.V if n >= p else f.U
    assert np.max(np.abs(q.T @ q - np.eye(min(n, p)))) <= 1e-13
    recon = f.U @ np.diag(f.S) @ f.V.T
    assert np.max(np.abs(recon - x)) <= 1e-13 * ref[0]


def test_round_robin_visits_every_pair_once():
    for p in range(1, 12):
        rounds = _round_robin(p)
        assert len(rounds) == p - 1 + p % 2
        for pairs in rounds:
            assert len(pairs) == p // 2
            assert len({c for pair in pairs for c in pair}) == 2 * len(pairs)
        visited = sorted(tuple(sorted(pair)) for pairs in rounds for pair in pairs)
        assert visited == [(i, j) for i in range(p) for j in range(i + 1, p)]


SWEEP_INPUTS = [
    sp.SplitMix64(3).normal_matrix(30, 11),
    sp.SplitMix64(4).normal_matrix(9, 16),
    sp.matrix_with_spectrum(sp.SpectrumSpec(
        n=40, p=20, seed=1, singular_values=tuple(3.0 * 0.7**j for j in range(20)))),
]


@pytest.mark.parametrize("x", SWEEP_INPUTS)
def test_batched_and_pairwise_sweeps_agree(monkeypatch, x):
    # the same round-robin rounds, rotated at once or pair by pair
    runs = []
    for width in (2, 10**9):
        monkeypatch.setattr(svdpert.linalg, "_BATCH_MIN_WIDTH", width)
        runs.append(sp.svd(x).S)
    assert np.all(np.abs(runs[0] - runs[1]) <= 1e-14 * runs[0][0])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=8),
       st.booleans(), st.integers(min_value=0, max_value=2**32),
       st.sampled_from(["none", "rows", "columns"]),
       st.lists(st.integers(min_value=-300, max_value=300), min_size=15, max_size=15),
       st.sets(st.integers(min_value=0, max_value=14), max_size=3))
@example(p=3, extra=2, wide=False, seed=1, grading="none", exponents=[0] * 15,
         zero_rows=set())
@example(p=7, extra=1, wide=True, seed=2, grading="none", exponents=[0] * 15,
         zero_rows=set())
@example(p=5, extra=0, wide=False, seed=3, grading="columns",
         exponents=[-300, 300, 0, -150, 150] + [0] * 10, zero_rows={0})
def test_sweep_drivers_agree_bitwise_below_batch_width(p, extra, wide, seed,
                                                       grading, exponents, zero_rows):
    # below _BATCH_MIN_WIDTH the pair path sums and rotates on Python floats
    # exactly as the batched rounds do, so the width only chooses speed: a
    # BLAS dot, math.fsum or a compensated sum() in the pair path fails here
    x = sp.SplitMix64(seed).normal_matrix(p + extra, p)
    if grading == "rows":
        x = np.ldexp(x, np.array(exponents[:p + extra])[:, None])
    elif grading == "columns":
        x = np.ldexp(x, np.array(exponents[:p]))
    x[[r for r in zero_rows if r < p + extra]] = 0.0
    if wide:
        x = x.T
    # and both need the same smallest sweep budget
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        for width in (2, 8):
            patch.setattr(svdpert.linalg, "_BATCH_MIN_WIDTH", width)
            f = sp.svd(x)
            runs.append([a.tobytes() for a in (f.U, f.S, f.V)])
            runs[-1].append(smallest_budget(lambda budget: sp.svd(x, budget)))
    assert runs[0] == runs[1]


def smallest_budget(solve):
    """The smallest max_sweeps with which solve(max_sweeps) returns."""
    for budget in range(1, JACOBI_SWEEP_LIMIT + 1):
        try:
            solve(budget)
        except ConvergenceFailure:
            continue
        return budget
    raise AssertionError("no budget up to JACOBI_SWEEP_LIMIT converges")


@pytest.mark.parametrize("width", [2, 10**9])
@pytest.mark.parametrize("x", SWEEP_INPUTS)
def test_each_sweep_path_is_deterministic_bitwise(monkeypatch, width, x):
    monkeypatch.setattr(svdpert.linalg, "_BATCH_MIN_WIDTH", width)
    f1, f2 = sp.svd(x), sp.svd(x)
    assert np.array_equal(f1.U, f2.U)
    assert np.array_equal(f1.S, f2.S)
    assert np.array_equal(f1.V, f2.V)


@pytest.mark.parametrize("case", [
    "svd-0", "svd-2", "svd-12x25", "svd-60x33", "rungs-pivot-0", "rungs-pivot-2"])
def test_sweep_start_ends_a_matrix_exactly_when_its_sweep_turns_nothing(monkeypatch,
                                                                        case):
    # _sweep_start ends a matrix where its sweep would rotate no pair, and
    # each sweep rotates a pair of every matrix its check keeps.  A matrix
    # it ends is swept again, with the rungs still running or once more
    # anyway, which rotates nothing of it and keeps every byte; on svd's
    # rounds (one matrix) and on an 8-rung stack
    kind, _, arg = case.partition("-")
    if kind == "svd":
        x = {"0": SWEEP_INPUTS[0], "2": SWEEP_INPUTS[2],
             "12x25": sp.SplitMix64(5).normal_matrix(12, 25),
             "60x33": sp.matrix_with_spectrum(sp.SpectrumSpec(
                 n=60, p=33, seed=2, singular_values=tuple(
                     3.0 * 0.7**j for j in range(33))))}[arg]

        def solve():
            f = sp.svd(x)
            return [f.U, f.S, f.V]
    else:
        ys, _, v0 = warm_pivot_solve(40, 20, 1, 3, rungs=8)
        stack = np.array([y @ v0 for y in ys])

        def solve():
            return [np.asarray(part) for triplet in
                    _pivot_sweeps(stack, int(arg[-1])) for part in triplet]

    check, step = svdpert.linalg._sweep_start, svdpert.linalg._jacobi_step
    rotation = svdpert.linalg._rotation
    sweeps, forced, rotations = [], set(), []

    def audited_check(W, e, I, J):
        verdict, squares = check(W, e, I, J)
        swept = verdict.copy()
        for r in np.flatnonzero(~verdict):
            swept[r] = r not in forced
            forced.add(r)
        sweeps.append((verdict, np.zeros_like(verdict)))
        return swept, squares

    def counted(*args):
        rotations.append(args)
        return rotation(*args)

    def audited_step(WV, e, top, bottom, b=None):
        # whether a pair of each matrix turns: the step on its pairs alone
        # (a run of them, the same count for each matrix) takes an angle
        turned = sweeps[-1][1]
        tops, bottoms = (range(*s.indices(WV.shape[1])) for s in (top, bottom))
        q = len(tops) // len(turned)
        for r in range(len(turned)):
            pairs = slice(q * r, q * r + q)
            rotations.clear()
            step(WV, e, *(slice(g.start, g.stop, g.step) for g in (
                tops[pairs], bottoms[pairs])), None if b is None else b[pairs])
            turned[r] |= bool(rotations)
        return step(WV, e, top, bottom, b)

    expected = solve()
    # chunks of one pair or a few, so that the walk over them is tested
    monkeypatch.setattr(svdpert.linalg, "_CHECK_CELLS", 1 << 6)
    monkeypatch.setattr(svdpert.linalg, "_sweep_start", audited_check)
    monkeypatch.setattr(svdpert.linalg, "_jacobi_step", audited_step)
    monkeypatch.setattr(svdpert.linalg, "_rotation", counted)
    got = solve()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
    assert len(forced) == len(sweeps[0][0])
    assert any(verdict.any() for verdict, _ in sweeps)
    for verdict, turned in sweeps:
        assert np.array_equal(verdict, turned)


def test_svd_orthogonal_tiny_column_is_exact():
    f = sp.svd(np.diag([1.0, 1e-160]))
    assert np.array_equal(f.S, np.array([1.0, 1e-160]))
    assert np.array_equal(f.U, np.eye(2))
    assert np.array_equal(f.V, np.eye(2))


# ------------------------------------------ lockstep one-column Jacobi solve

def warm_pivot_solve(n, p, k, seed, rungs=1):
    """Lockstep pivot-k sweeps on the stack Y_r V0, r < rungs, V0 the right
    vectors of Y0 and Y_r = Y0 + 2^-r 1e-3 G a small perturbation of it;
    returns the Y_r, the (sigma, u, y) of each and V0."""
    spec = sp.SpectrumSpec(n=n, p=p, seed=seed, singular_values=tuple(
        3.0 * 0.6**j for j in range(p)))
    y0 = sp.matrix_with_spectrum(spec)
    g = sp.SplitMix64(seed + 1).normal_matrix(n, p)
    ys = [y0 + 2.0**-r * 1e-3 * g for r in range(rungs)]
    v0 = sp.svd(y0).V
    stack = np.array([y @ v0 for y in ys])
    return ys, list(_pivot_sweeps(stack, k - 1, JACOBI_SWEEP_LIMIT)), v0


@pytest.mark.parametrize("n, p, k", [
    (9, 5, 1), (9, 5, 3), (9, 5, 5), (5, 5, 1), (5, 5, 5), (6, 1, 1),
])
def test_pivot_sweeps_give_the_exact_triplet(n, p, k):
    # column k - 1 orthogonal to the rest makes V0 V[:, k - 1] an exact
    # right singular vector, on a 1-rung and on a 4-rung stack; LAPACK is
    # a test-only oracle
    for rungs in (1, 4):
        ys, triplets, v0 = warm_pivot_solve(n, p, k, 40 + n + p + k, rungs)
        assert len(triplets) == rungs
        for y, (sigma, u, yk) in zip(ys, triplets):
            U, S, Vt = np.linalg.svd(y, full_matrices=False)
            v = v0 @ yk
            sign = math.copysign(1.0, float(v @ Vt[k - 1]))
            assert np.linalg.norm(v - sign * Vt[k - 1]) <= 1e-13
            assert np.linalg.norm(u - sign * U[:, k - 1]) <= 1e-13
            assert abs(sigma - S[k - 1]) <= 1e-13 * S[0]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(5, 5), (9, 5), (7, 7), (12, 6), (6, 3)]),
       st.integers(min_value=0, max_value=2**32))
@example(shape=(9, 5), seed=31)
@example(shape=(5, 5), seed=1)
@example(shape=(7, 7), seed=0)
def test_pivot_sweeps_deterministic_bitwise(shape, seed):
    # for every pivot, the same stack twice, and each rung of it alone, give
    # the same bits: a rung's arithmetic must not follow its place in the
    # stack's memory, as a BLAS dot's does on some kernels.  A rung needs the
    # same sweep budget in its stack as alone: the stack yields rung r within
    # a budget exactly when rungs 0..r each converge within it alone
    n, p = shape
    ys, _, v0 = warm_pivot_solve(n, p, 1, seed, rungs=4)
    stack = np.array([y @ v0 for y in ys])
    for k in range(p):
        assert_stack_solves_each_rung_alone(stack, k)


def assert_stack_solves_each_rung_alone(stack, k):
    """Check test_pivot_sweeps_deterministic_bitwise's claims for pivot k;
    returns each rung's smallest sweep budget alone."""
    first, second = (list(_pivot_sweeps(stack, k)) for _ in range(2))
    alone = [next(_pivot_sweeps(stack[r:r + 1], k)) for r in range(len(stack))]
    for a, b, c in zip(first, second, alone):
        assert a[0] == b[0] == c[0]
        for i in (1, 2):
            assert np.array_equal(a[i], b[i]) and np.array_equal(a[i], c[i])
    budgets = [smallest_budget(lambda b: next(_pivot_sweeps(stack[r:r + 1], k, b)))
               for r in range(len(stack))]
    for r in range(len(stack)):
        in_stack = smallest_budget(
            lambda b: list(itertools.islice(_pivot_sweeps(stack, k, b), r + 1)))
        assert in_stack == max(budgets[:r + 1])
    return budgets


@pytest.mark.parametrize("k, budgets", [
    (1, [4, 4, 4, 4, 3, 3, 3, 3]), (3, [5, 4, 4, 4, 4, 3, 3, 3])])
def test_pivot_sweeps_rungs_that_end_at_different_sweeps(k, budgets):
    # verify's default 8-rung ladder on X and E from `gen --n 30 --p 9 --sv
    # 3*0.7^j` seeds 11 and 12: its later rungs end a sweep or two before
    # its first, so they are swept on, unturned, while the first still turns
    sv = tuple(3.0 * 0.7**j for j in range(9))
    x, e = (sp.matrix_with_spectrum(sp.SpectrumSpec(n=30, p=9, seed=seed,
                                                     singular_values=sv))
            for seed in (11, 12))
    (xo, eo, _), full, _ = svdpert.convergence._decompose(x, e, k, "eps0", 0.0)
    eps = [1e-2 * 0.5**i for i in range(8)]
    stack = xo @ full.V + np.multiply.outer(eps, eo @ full.V)
    assert assert_stack_solves_each_rung_alone(stack, k - 1) == budgets


def test_every_rotation_comes_from_the_one_formula(monkeypatch):
    # svd's batched rounds and the lockstep rung steps both take each angle
    # from _rotation: recording it keeps every byte, and replacing it by the
    # identity leaves every pair unturned, so neither solve can converge
    x = SWEEP_INPUTS[0]
    ys, _, v0 = warm_pivot_solve(9, 5, 2, 7, rungs=3)
    stack = np.array([y @ v0 for y in ys])

    def solve_svd():
        f = sp.svd(x)
        return [f.U, f.S, f.V]

    def solve_rungs():
        return [np.asarray(part) for triplet in
                _pivot_sweeps(stack, 1, JACOBI_SWEEP_LIMIT) for part in triplet]

    rotation = svdpert.linalg._rotation
    calls = []

    def recorded(*args):
        calls.append(args)
        return rotation(*args)

    for solve in (solve_svd, solve_rungs):
        expected = solve()
        monkeypatch.setattr(svdpert.linalg, "_rotation", recorded)
        calls.clear()
        got = solve()
        assert calls
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        monkeypatch.setattr(svdpert.linalg, "_rotation",
                            lambda a, b, c, d: (1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ConvergenceFailure):
            solve()
        monkeypatch.setattr(svdpert.linalg, "_rotation", rotation)


def ldexp_rotation(a, b, c, d):
    """_rotation with every power of two applied by math.ldexp."""
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


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
       st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
       st.floats(min_value=-1e300, max_value=1e300).filter(bool),
       st.integers(min_value=-1100, max_value=1100))
@example(a=0.75, b=0.6, c=0.3, d=0)
@example(a=0.75, b=0.6, c=-0.3, d=511)
@example(a=0.75, b=0.6, c=0.3, d=-511)
@example(a=0.75, b=0.6, c=0.3, d=512)
@example(a=0.75, b=0.6, c=-0.3, d=-512)
@example(a=0.75, b=0.6, c=0.3, d=537)
@example(a=0.75, b=0.6, c=0.3, d=-537)
# 2^300 2^-1200 is 2^-900 = a, where a product by 2^-600 squared is 0
@example(a=2.0**-900, b=2.0**300, c=1.0, d=-600)
def test_rotation_scales_as_ldexp_does(a, b, c, d):
    # _rotation's products by exact powers of two round as math.ldexp does,
    # so all four factors keep their bits, the sign of a zero included (or
    # both divide by zero, where z and 2^d are 0, which no sweep meets)
    def outcome(rotation):
        try:
            return [x.hex() for x in rotation(a, b, c, d)]
        except ZeroDivisionError:
            return "ZeroDivisionError"

    assert outcome(_rotation) == outcome(ldexp_rotation)


def test_pivot_sweep_limit_raises():
    for rungs in (1, 3):
        with pytest.raises(ConvergenceFailure):
            list(_pivot_sweeps(np.ones((rungs, 3, 3)), 0, 1))
    # an orthogonal rung before the failing one is still yielded first
    solve = _pivot_sweeps(np.array([np.eye(3), np.ones((3, 3))]), 0, 1)
    assert next(solve)[0] == 1.0
    with pytest.raises(ConvergenceFailure):
        next(solve)


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


@pytest.mark.parametrize("shape", [
    (300, 150), (600, 4), (1, 1),
    # and a spread of narrow widths
    (40, 15), (40, 16), (40, 17), (40, 32), (40, 33),
])
def test_qr_thin_q_against_householder(shape):
    a = sp.SplitMix64(31).normal_matrix(*shape)
    q = sp.qr_orthonormal(a)
    assert q.shape == shape
    assert np.max(np.abs(q.T @ q - np.eye(shape[1]))) <= 1e-13
    # oracle: svd's own Householder QR, one reflector at a time and
    # independent of LAPACK, with the diagonal of R made nonnegative
    r_ref, _, reflectors = _preconditioning_qr(a, pivot=False)
    signs = np.sign(np.diag(r_ref))
    q_ref = _reflect(reflectors, np.eye(*shape)) * signs
    r = q.T @ a
    scale = sp.frobenius_norm(a)
    assert np.max(np.abs(q - q_ref)) <= 1e-13
    assert np.max(np.abs(r - signs[:, None] * r_ref)) <= 1e-13 * scale
    assert np.max(np.abs(q @ np.triu(r) - a)) <= 1e-13 * scale


@pytest.mark.parametrize("shape", [(5, 3), (40, 20), (150, 150), (300, 150)])
def test_qr_does_not_follow_the_input_layout(shape):
    # C order, Fortran order and a view 8 bytes off its buffer's alignment
    a = sp.SplitMix64(47).normal_matrix(*shape)
    shifted = np.empty(a.size + 1)[1:].reshape(shape)
    shifted[...] = a
    q = sp.qr_orthonormal(a)
    for layout in (np.asfortranarray(a), shifted):
        assert np.array_equal(sp.qr_orthonormal(layout), q)


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


def test_qr_zero_columns_get_no_reflector():
    # columns 5 and 20 are zero and stay zero under the reflectors left of
    # them: they get no reflector and a zero R[k, k], and the reflectors
    # around the gaps still give A = Q R
    a = sp.SplitMix64(37).normal_matrix(40, 24)
    a[:, [5, 20]] = 0.0
    R, perm, reflectors = _preconditioning_qr(a, pivot=False)
    assert np.array_equal(perm, np.arange(24))
    assert [k for k, _, _ in reflectors] == [k for k in range(24) if k not in (5, 20)]
    assert R[5, 5] == R[20, 20] == 0.0
    qr = _reflect(reflectors, np.vstack([R, np.zeros((16, 24))]))
    assert np.max(np.abs(qr - a)) <= 1e-14 * sp.frobenius_norm(a)
    with pytest.raises(RankDeficient, match=r"min \|R_kk\| = 0\.000e\+00"):
        sp.qr_orthonormal(a)


@pytest.mark.parametrize("pivot", [False, True])
@pytest.mark.parametrize("m", [1, 16, 17])
def test_reflect_applies_the_reflectors_one_by_one(m, pivot):
    # last first they give Q^T A[:, perm] = [R; 0], in order Q [R; 0] =
    # A[:, perm]; to 1e-14 |A|, where the errors are near 1e-16 |A|
    n = m + 7
    a = sp.SplitMix64(41 + m).normal_matrix(n, m)
    R, perm, reflectors = _preconditioning_qr(a, pivot=pivot)
    assert len(reflectors) == m
    r0 = np.vstack([R, np.zeros((n - m, m))])
    tol = 1e-14 * sp.frobenius_norm(a)
    assert np.max(np.abs(_reflect(reflectors[::-1], a[:, perm]) - r0)) <= tol
    assert np.max(np.abs(_reflect(reflectors, r0.copy()) - a[:, perm])) <= tol


def test_qr_wide_raises():
    with pytest.raises(DimensionMismatch):
        sp.qr_orthonormal(np.ones((2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-900, max_value=900),
       st.integers(min_value=0, max_value=2**32),
       st.sampled_from([(7, 4), (300, 150)]))
@example(j=900, seed=3, shape=(7, 4))
@example(j=-900, seed=3, shape=(7, 4))
# past LAPACK's crossover to blocked QR
@example(j=900, seed=3, shape=(300, 150))
@example(j=-900, seed=3, shape=(300, 150))
@example(j=1, seed=3, shape=(300, 150))
def test_qr_power_of_two_scaling_is_bitwise(j, seed, shape):
    a = sp.SplitMix64(seed).normal_matrix(*shape)
    assert np.array_equal(sp.qr_orthonormal(a * 2.0**j), sp.qr_orthonormal(a))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=150),
       st.integers(min_value=0, max_value=2**32), st.integers(min_value=-900, max_value=900))
@example(n=4, m=3, seed=0, j=None)  # the zero matrix
@example(n=300, m=150, seed=3, j=-900)
def test_qr_rank_check_reads_frobenius_norm(n, m, seed, j):
    # qr_orthonormal's rank check takes the plain root of the sum of
    # squares of its prescaled A: at max |A| in [0.5, 1), or A = 0,
    # frobenius_norm scales by 2^0 and gives the same bits
    a = np.zeros((n, m)) if j is None else sp.SplitMix64(seed).normal_matrix(n, m) * 2.0**j
    A = np.ldexp(a, -svdpert.linalg._exponent(a))
    assert j is None or 0.5 <= np.max(np.abs(A)) < 1.0
    assert sp.frobenius_norm(A) == float(np.sqrt(np.sum(A * A)))


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
