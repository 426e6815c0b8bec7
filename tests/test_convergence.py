"""Convergence certification tests.

Slope fits are validated on synthetic exact power laws; residual
measurements are validated against the closed-form rotation of a
symmetric 2x2 perturbation.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_instance, run_cli

import svdpert as sp
import svdpert.convergence
from svdpert import FormulaVariant
from svdpert.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InsufficientSamples,
    TripletMatchAmbiguous,
    ZeroVector,
)


# -------------------------------------------------------------- align_sign

def test_align_sign_flips_when_needed():
    ref = np.array([1.0, 0.0])
    assert np.array_equal(sp.align_sign(ref, np.array([-0.9, 0.1])),
                          np.array([0.9, -0.1]))
    assert np.array_equal(sp.align_sign(ref, np.array([0.9, -0.1])),
                          np.array([0.9, -0.1]))


def test_align_sign_orthogonal_keeps_candidate():
    got = sp.align_sign(np.array([1.0, 0.0]), np.array([0.0, -2.0]))
    assert np.array_equal(got, np.array([0.0, -2.0]))


def test_align_sign_errors():
    with pytest.raises(ZeroVector):
        sp.align_sign(np.array([1.0]), np.array([0.0]))
    with pytest.raises(DimensionMismatch):
        sp.align_sign(np.array([1.0, 0.0]), np.array([1.0]))


# ---------------------------------------------------------- residual sample

def test_residual_sample_validation():
    sp.ResidualSample(epsilon=0.0, res_u=0.0, res_v=0.0, res_sigma=0.0)
    with pytest.raises(ValueError):
        sp.ResidualSample(epsilon=-1.0, res_u=0.0, res_v=0.0, res_sigma=0.0)
    with pytest.raises(ValueError):
        sp.ResidualSample(epsilon=1.0, res_u=-1e-9, res_v=0.0, res_sigma=0.0)
    with pytest.raises(ValueError):
        sp.ResidualSample(epsilon=1.0, res_u=np.nan, res_v=0.0, res_sigma=0.0)


# ------------------------------------------------------------- residuals_at

def test_residuals_at_zero_epsilon_is_noise_floor():
    # the value residual vanishes exactly; vector residuals only reach the
    # gauge's machine noise (the rescale divides by |u1|^2 = 1 +- ulp)
    x, e = make_instance(5, 3, 61)
    for variant in FormulaVariant:
        res = sp.residuals_at(x, e, 0.0, variant=variant)
        assert res.res_u <= 1e-14
        assert res.res_v <= 1e-14
        assert res.res_sigma == 0.0


def test_zero_direction_raises_before_decomposing():
    # eye(4, 3) has no gap at k = 1, so a GapTooSmall here would mean the
    # direction was checked after the decomposition
    x = np.eye(4, 3)
    with pytest.raises(ZeroVector, match="zero norm"):
        sp.residuals_at(x, np.zeros((4, 3)), 1e-3)
    with pytest.raises(ZeroVector, match="zero norm"):
        sp.convergence_ladders(x, np.zeros((4, 3)), (FormulaVariant.CORRECTED,))


def test_residuals_at_sign_flip_defect_is_first_order():
    # flipped cross sign halves the predicted coefficient: residual
    # delta/4 up to third-order terms
    x = np.diag([3.0, 1.0])
    e_dir = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    eps = 1e-3 * np.sqrt(2.0)
    delta = 1e-3
    res = sp.residuals_at(x, e_dir, eps, variant=FormulaVariant.SIGN_FLIPPED)
    assert abs(res.res_v - delta / 4.0) <= delta**2


def test_residuals_at_wide_input_swaps_metrics():
    x, e = make_instance(5, 3, 63)
    tall = sp.residuals_at(x, e, 1e-4)
    wide = sp.residuals_at(x.T, e.T, 1e-4)
    assert wide.res_u == tall.res_v
    assert wide.res_v == tall.res_u
    assert wide.res_sigma == tall.res_sigma


def test_residuals_at_ambiguous_match_raises():
    x = np.diag([2.0, 1.0])
    e_dir = np.zeros((2, 2))
    e_dir[0, 1] = 1.0
    with pytest.raises(TripletMatchAmbiguous) as exc:
        sp.residuals_at(x, e_dir, 10.0)
    assert exc.value.overlap < exc.value.threshold == 0.7
    assert exc.value.epsilon == 10.0


def test_residuals_at_untracked_triplet_raises():
    # at p = 2 the larger of two right-vector overlaps is at least
    # 1/sqrt(2) > 0.7, so only p >= 3 can lose the triplet itself: here
    # eps E_dir, with e1 reflected onto (1, 1, 1)/sqrt(3), dominates X and
    # spreads e1 evenly over the exact right vectors
    x = np.diag([3.0, 2.0, 1.0])
    w = np.array([1.0, 0.0, 0.0]) - np.ones(3) / np.sqrt(3.0)
    h = np.eye(3) - 2.0 * np.outer(w, w) / (w @ w)
    e_dir = h @ x @ h
    e_dir /= sp.frobenius_norm(e_dir)
    with pytest.raises(TripletMatchAmbiguous) as exc:
        sp.residuals_at(x, e_dir, 1e3)
    best = np.max(np.abs(np.linalg.svd(x + 1e3 * e_dir)[2][:, 0]))
    assert abs(exc.value.overlap - best) <= 1e-12
    assert exc.value.overlap < exc.value.threshold
    assert exc.value.epsilon == 1e3


def test_residuals_at_annihilated_triplet_raises():
    # eps E_dir = -X exactly: the perturbed matrix is 0, so the tracked
    # column has no direction to compare against u1
    x = np.diag([2.0, 1.0])
    norm = sp.frobenius_norm(x)
    with pytest.raises(TripletMatchAmbiguous) as exc:
        sp.residuals_at(x, -x, norm)
    assert exc.value.overlap == 0.0
    assert exc.value.epsilon == norm


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -1e-3])
def test_residuals_at_rejects_bad_epsilon(epsilon):
    x, e = make_instance(4, 3, 62)
    with pytest.raises(ValueError, match="epsilon"):
        sp.residuals_at(x, e, epsilon)


# --------------------------------------------------------------- slope fits

def test_fit_loglog_slope_exact_quadratic():
    eps = [1e-2 * 0.5**i for i in range(6)]
    slope, r2 = sp.fit_loglog_slope(eps, [e**2 for e in eps])
    assert abs(slope - 2.0) <= 1e-10
    assert r2 >= 1.0 - 1e-12


def test_fit_loglog_slope_exact_linear_with_prefactor():
    eps = [1e-2 * 0.5**i for i in range(6)]
    slope, r2 = sp.fit_loglog_slope(eps, [3.0 * e for e in eps])
    assert abs(slope - 1.0) <= 1e-10
    assert r2 >= 1.0 - 1e-12


@pytest.mark.parametrize("length", range(3, 9))
@pytest.mark.parametrize("value", [1.0, 0.1, 3e-9, 1e-250])
def test_fit_loglog_slope_flat_ladder(value, length):
    # a flat series is fitted exactly by the order-0 line, whatever the
    # constant: roundoff in its mean must not turn that into r2 = 0
    eps = [1e-2 * 0.5**i for i in range(length)]
    assert sp.fit_loglog_slope(eps, [value] * length) == (0.0, 1.0)


def test_fit_loglog_slope_rejects_equal_epsilons():
    with pytest.raises(ValueError, match="epsilons"):
        sp.fit_loglog_slope([1e-3] * 4, [1e-6, 2e-6, 3e-6, 4e-6])


@pytest.mark.parametrize("epsilons, residuals, message", [
    ([1e-2, 5e-3, 2.5e-3], [1e-4, 0.0, 6e-6], "residual must be finite and positive, got 0.0"),
    ([1e-2, 5e-3, 2.5e-3], [1e-4, -2e-5, 6e-6], "residual must be finite and positive, got -2e-05"),
    ([1e-2, 5e-3, 2.5e-3], [1e-4, math.inf, 6e-6], "residual must be finite and positive, got inf"),
    ([1e-2, 5e-3, 2.5e-3], [1e-4, math.nan, 6e-6], "residual must be finite and positive, got nan"),
    ([1e-2, 0.0, 2.5e-3], [1e-4, 2e-5, 6e-6], "epsilon must be finite and positive, got 0.0"),
    ([1e-2, -5e-3, 2.5e-3], [1e-4, 2e-5, 6e-6], "epsilon must be finite and positive, got -0.005"),
    ([], [], "need at least one sample"),
    ([1e-2, 5e-3, 2.5e-3], [1e-4, 2e-5], "got 3 epsilons but 2 residuals"),
], ids=["zero-residual", "negative-residual", "inf-residual", "nan-residual",
        "zero-epsilon", "negative-epsilon", "no-samples", "unequal-lengths"])
def test_fit_loglog_slope_rejects_bad_samples(epsilons, residuals, message):
    # a log of a zero, negative or infinite sample would fit a NaN slope
    # with r2 = 1
    with pytest.raises(ValueError, match=re.escape(message)):
        sp.fit_loglog_slope(epsilons, residuals)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.5, max_value=3.0),
       st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=12),
       st.permutations(range(12)))
@example(factor=0.5, order=2.0, wobble=[0.0, 0.3, -0.2, 0.1, 0.5, -0.4, 0.0, 0.2],
         shuffle=list(range(11, -1, -1)))
def test_fit_loglog_slope_does_not_depend_on_sample_order(factor, order, wobble,
                                                          shuffle):
    eps = [1e-2 * factor**i for i in range(len(wobble))]
    res = [e**order * (1.0 + 1e-3 * w) for e, w in zip(eps, wobble)]
    shuffle = [i for i in shuffle if i < len(eps)]
    shuffled = sp.fit_loglog_slope([eps[i] for i in shuffle], [res[i] for i in shuffle])
    assert shuffled == sp.fit_loglog_slope(eps, res)


def _mp_loglog_fit(epsilons, residuals):
    """(slope, r2) of the least-squares line through the log-log points,
    in 50-digit arithmetic on the same double inputs (test-only oracle)."""
    import mpmath

    with mpmath.workdps(50):
        x = [mpmath.log(mpmath.mpf(e)) for e in epsilons]
        y = [mpmath.log(mpmath.mpf(r)) for r in residuals]
        xm, ym = mpmath.fsum(x) / len(x), mpmath.fsum(y) / len(y)
        sxx = mpmath.fsum((a - xm) ** 2 for a in x)
        sxy = mpmath.fsum((a - xm) * (b - ym) for a, b in zip(x, y))
        syy = mpmath.fsum((b - ym) ** 2 for b in y)
        return float(sxy / sxx), float(sxy**2 / (sxx * syy))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.1, max_value=0.5),
       st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=0.0, max_value=1e-6),
       st.lists(st.floats(min_value=-1.0, max_value=1.0),
                min_size=3, max_size=10))
@example(factor=0.5, order=2.0, noise=0.0, wobble=[0.0] * 8)
@example(factor=0.5, order=1.0, noise=1e-6, wobble=[1.0, -1.0, 1.0])
def test_fit_loglog_slope_matches_multiprecision_fit(factor, order, noise,
                                                     wobble):
    eps = [1e-2 * factor**i for i in range(len(wobble))]
    res = [e**order * (1.0 + noise * w) for e, w in zip(eps, wobble)]
    slope, r2 = sp.fit_loglog_slope(eps, res)
    ref_slope, ref_r2 = _mp_loglog_fit(eps, res)
    assert abs(slope - ref_slope) <= 1e-13 * abs(ref_slope)
    assert abs(r2 - ref_r2) <= 1e-13
    assert 0.0 <= r2 <= 1.0


def test_fit_report_filters_noise_floor():
    eps = [1e-3 * 0.5**i for i in range(8)]
    samples = [
        sp.ResidualSample(epsilon=e, res_u=e**3, res_v=e**2, res_sigma=e**2)
        for e in eps
    ]
    # res_u drops below 1e-13 for the last three rungs; the fit must use
    # only the survivors and still recover the cubic order
    assert min(s.res_u for s in samples) < 1e-13
    report = sp.fit_report(FormulaVariant.CORRECTED, samples)
    assert abs(report.order_u - 3.0) <= 1e-8
    assert abs(report.order_v - 2.0) <= 1e-10


def test_fit_report_insufficient_samples():
    eps = [1e-2 * 0.5**i for i in range(4)]
    samples = [
        sp.ResidualSample(epsilon=e, res_u=e**2, res_v=e**2, res_sigma=1e-15)
        for e in eps
    ]
    with pytest.raises(InsufficientSamples) as exc:
        sp.fit_report(FormulaVariant.CORRECTED, samples)
    assert str(exc.value) == (
        "res_sigma: only 0 samples above the noise floor 1e-13; at or below "
        "it at epsilon 0.01, 0.005, 0.0025, 0.00125"
    )
    # only the rungs at or below the floor are named
    samples = [
        sp.ResidualSample(epsilon=e, res_u=e**2, res_v=e**5, res_sigma=e)
        for e in eps
    ]
    with pytest.raises(InsufficientSamples, match=(
        r"^res_v: only 2 samples above the noise floor 1e-13; "
        r"at or below it at epsilon 0\.0025, 0\.00125$"
    )):
        sp.fit_report(FormulaVariant.CORRECTED, samples)


def test_report_validates_ladder_shape():
    def make(epsilons):
        samples = [
            sp.ResidualSample(epsilon=e, res_u=e, res_v=e, res_sigma=e)
            for e in epsilons
        ]
        return sp.ConvergenceReport(
            variant=FormulaVariant.CORRECTED,
            samples=samples,
            order_u=1.0, order_v=1.0, order_sigma=1.0,
            r2_u=1.0, r2_v=1.0, r2_sigma=1.0,
        )

    make([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    with pytest.raises(ValueError):
        make([1e-2, 5e-3, 2.5e-3])               # too few
    with pytest.raises(ValueError):
        make([1e-2, 5e-3, 2.5e-3, 2.0e-3])       # factor drifts
    with pytest.raises(ValueError):
        make([1e-2, 2e-2, 4e-2, 8e-2])           # increasing
    with pytest.raises(ValueError, match="strictly positive"):
        make([1e-2, 5e-3, 2.5e-3, 0.0])          # reaches epsilon 0


# ------------------------------------------------------------------ ladders

def test_ladder_corrected_is_second_order():
    x, e = make_instance(6, 4, 70)
    report = sp.convergence_ladder(x, e)
    assert 1.8 <= report.order_u <= 2.2
    assert 1.8 <= report.order_v <= 2.2
    assert 1.8 <= report.order_sigma <= 2.2
    assert report.min_r2 >= 0.99
    res_u = [s.res_u for s in report.samples]
    assert all(a > b for a, b in zip(res_u, res_u[1:]))


def test_ladder_defective_variants_are_first_order():
    x, e = make_instance(6, 4, 70)
    flipped = sp.convergence_ladder(x, e, variant=FormulaVariant.SIGN_FLIPPED)
    assert 0.8 <= flipped.order_u <= 1.2
    assert 0.8 <= flipped.order_v <= 1.2
    dropped = sp.convergence_ladder(x, e, variant=FormulaVariant.U3_OMITTED)
    assert 0.8 <= dropped.order_u <= 1.2
    # the right vector is untouched by the complement defect
    assert 1.8 <= dropped.order_v <= 2.2


def test_ladder_deterministic_bitwise():
    x, e = make_instance(5, 3, 71)
    a = sp.convergence_ladder(x, e)
    b = sp.convergence_ladder(x, e)
    assert a == b


def test_ladder_precondition_errors():
    x, e = make_instance(5, 3, 72)
    with pytest.raises(ValueError):
        sp.convergence_ladder(x, e, count=3)
    with pytest.raises(ValueError):
        sp.convergence_ladder(x, e, factor=1.0)
    with pytest.raises(ValueError):
        sp.convergence_ladder(x, e, eps0=0.0)
    # leading gap of the seeded spectrum is 3 * 0.35 = 1.05
    with pytest.raises(ValueError):
        sp.convergence_ladder(x, e, eps0=0.2)


def test_symmetric_case_right_vector_superconverges():
    # for a symmetric perturbation of a symmetric matrix the second-order
    # vector error cancels in the gauge and the residual is cubic
    x = np.diag([3.0, 1.0])
    e_dir = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    report = sp.convergence_ladder(x, e_dir)
    assert 2.5 <= report.order_v <= 3.5
    assert 2.5 <= report.order_u <= 3.5
    assert 1.8 <= report.order_sigma <= 2.2


# --------------------------------------- one decomposition per ladder rung

# (n, p, k, transpose): tall, wide, square and k = p
LADDER_CASES = [(6, 4, 1, False), (6, 4, 1, True), (5, 5, 1, False),
                (6, 4, 4, False)]


def ladder_instance(n, p, k, transpose):
    x, e = make_instance(n, p, 90 + n + 10 * p + k)
    return (x.T, e.T) if transpose else (x, e)


@pytest.fixture
def solves(monkeypatch):
    # "svd" for each decomposition the ladder makes, and (pivot, rungs) for
    # each lockstep solve of a ladder's rungs, in call order
    calls = []
    real_svd = svdpert.convergence.svd
    real_sweeps = svdpert.convergence._pivot_sweeps

    def counted_svd(x, *args, **kwargs):
        calls.append("svd")
        return real_svd(x, *args, **kwargs)

    def counted_sweeps(x, pivot, max_sweeps):
        calls.append((pivot, len(x)))
        return real_sweeps(x, pivot, max_sweeps)

    monkeypatch.setattr(svdpert.convergence, "svd", counted_svd)
    monkeypatch.setattr(svdpert.convergence, "_pivot_sweeps", counted_sweeps)
    return calls


@pytest.mark.parametrize("variants", [
    (FormulaVariant.CORRECTED,),
    (FormulaVariant.CORRECTED, FormulaVariant.SIGN_FLIPPED),
    (FormulaVariant.CORRECTED, FormulaVariant.SIGN_FLIPPED,
     FormulaVariant.U3_OMITTED),
])
def test_ladder_makes_one_decomposition_per_rung(solves, variants):
    # one SVD of X, then one lockstep solve of all rungs for the tracked
    # column alone, however many variants share the ladder
    x, e = make_instance(6, 4, 70)
    reports = sp.convergence_ladders(x, e, variants, k=2, count=6)
    assert [r.variant for r in reports] == list(variants)
    assert solves == ["svd", (1, 6)]


def test_errata_makes_one_decomposition_per_rung(solves):
    code, _, _ = run_cli(["errata"])
    assert code == 0
    assert solves == ["svd", (0, 8)]


# the ladder cases plus a square and a wide input at k > 1
NEIGHBOUR_CASES = LADDER_CASES + [(5, 5, 3, False), (6, 4, 2, True)]


@pytest.mark.parametrize("n, p, k, transpose", NEIGHBOUR_CASES)
def test_rung_does_not_depend_on_its_neighbours(n, p, k, transpose):
    # the rungs are solved together, each with arithmetic of its own, and
    # with factor 0.5 every rung's scaled prediction is expand_triplet's at
    # its epsilon, so each sample is bitwise the one-rung residuals_at
    x, e = ladder_instance(n, p, k, transpose)
    variants = tuple(FormulaVariant)
    for variant, report in zip(variants, sp.convergence_ladders(x, e, variants, k=k)):
        for s in report.samples:
            assert repr(s) == repr(sp.residuals_at(x, e, s.epsilon, k, variant))


@pytest.mark.parametrize("n, p, k, transpose", NEIGHBOUR_CASES)
def test_scaled_predictions_are_expand_triplet_bitwise(monkeypatch, n, p, k, transpose):
    # every rung's exact triplet is replaced by the unperturbed one, so each
    # residual measures the ladder's own prediction; with factor 0.5 it must
    # be bitwise expand_triplet's at the rung's epsilon, order of additions
    # included
    x, e = ladder_instance(n, p, k, transpose)
    (_, Eo, swapped), full, part = svdpert.convergence._decompose(x, e, k)
    j = k - 1

    def unperturbed(stack, pivot, max_sweeps):
        for _ in stack:
            yield float(full.S[j]), full.U[:, j], np.eye(full.V.shape[1])[j]

    monkeypatch.setattr(svdpert.convergence, "_pivot_sweeps", unperturbed)
    u = full.U[:, j] / float(full.U[:, j] @ part.u1)
    v = full.V @ np.eye(full.V.shape[1])[j]
    variants = tuple(FormulaVariant)
    for variant, report in zip(variants, sp.convergence_ladders(x, e, variants, k=k)):
        for s in report.samples:
            pred = sp.expand_triplet(part, s.epsilon * Eo, variant)
            res_u, res_v = (float(np.sqrt(np.add.reduce(np.square(d))))
                            for d in (u - pred.u_tilde, v - pred.v_tilde))
            if swapped:
                res_u, res_v = res_v, res_u
            assert (s.res_u, s.res_v) == (res_u, res_v)
            assert s.res_sigma == abs(float(full.S[j]) - pred.sigma_tilde)


@pytest.mark.parametrize("n, p, k, transpose", NEIGHBOUR_CASES)
def test_rungs_at_a_factor_off_the_powers_of_two_fit_residuals_at(n, p, k, transpose):
    # with factor 0.3 the scaled prediction moves by ulps from the one
    # projected at each rung's epsilon; the fitted orders may not move
    x, e = ladder_instance(n, p, k, transpose)
    variants = tuple(FormulaVariant)
    sigma_max = float(sp.svd(x).S[0])
    reports = sp.convergence_ladders(x, e, variants, k=k, factor=0.3)
    for variant, report in zip(variants, reports):
        single = sp.fit_report(variant, [
            sp.residuals_at(x, e, s.epsilon, k, variant) for s in report.samples
        ], sigma_max)
        for metric in ("order_u", "order_v", "order_sigma"):
            assert abs(getattr(single, metric) - getattr(report, metric)) <= 1e-9


def test_ladder_solve_beyond_its_sweep_budget_raises(monkeypatch):
    # the rung solve reads the budget at call time; svd keeps its own
    monkeypatch.setattr(svdpert.convergence, "JACOBI_SWEEP_LIMIT", 1)
    x, e = make_instance(6, 4, 70)
    with pytest.raises(ConvergenceFailure):
        sp.convergence_ladders(x, e, tuple(FormulaVariant))


@pytest.mark.parametrize("n, p, k, transpose", LADDER_CASES)
def test_ladders_equal_single_variant_ladders(n, p, k, transpose):
    x, e = ladder_instance(n, p, k, transpose)
    variants = tuple(FormulaVariant)
    reports = sp.convergence_ladders(x, e, variants, k=k)
    assert len(reports) == len(variants)
    for variant, report in zip(variants, reports):
        assert report == sp.convergence_ladder(x, e, k=k, variant=variant)


@pytest.mark.parametrize("n, p, k, transpose", LADDER_CASES)
def test_ladder_residuals_match_lapack_oracle(n, p, k, transpose):
    # the oracle decomposes X + eps E cold with LAPACK (test-only); eps0
    # below a tenth of the gap keeps the k-th triplet k-th (Weyl)
    x, e = ladder_instance(n, p, k, transpose)
    variants = tuple(FormulaVariant)
    U0, _, Vt0 = np.linalg.svd(x, full_matrices=False)
    for variant, report in zip(variants, sp.convergence_ladders(x, e, variants, k=k)):
        for s in report.samples:
            U, S, Vt = np.linalg.svd(x + s.epsilon * e, full_matrices=False)
            u, v = U[:, k - 1], Vt[k - 1]
            pred = sp.expand_matrix(x, s.epsilon * e, k, variant)
            # the prediction's chart is signed by the library's (u1, v1)
            sign = np.sign(Vt0[k - 1] @ pred.v_tilde)
            u1, v1 = sign * U0[:, k - 1], sign * Vt0[k - 1]
            assert abs(s.res_u - np.linalg.norm(u / (u @ u1) - pred.u_tilde)) <= 1e-13
            assert abs(s.res_v - np.linalg.norm(v / (v @ v1) - pred.v_tilde)) <= 1e-13
            assert abs(s.res_sigma - abs(S[k - 1] - pred.sigma_tilde)) <= 1e-13


def test_ladders_need_a_variant():
    x, e = make_instance(5, 3, 72)
    with pytest.raises(ValueError):
        sp.convergence_ladders(x, e, ())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-300, max_value=300))
@example(-40)
@example(-20)
def test_ladder_orders_are_scale_invariant(j):
    # scaling X and the ladder by 2^j scales every residual of sigma by 2^j
    # and leaves the vector residuals alone, so no fit may move
    x, e = make_instance(6, 4, 70)
    variants = tuple(FormulaVariant)
    base = sp.convergence_ladders(x, e, variants)
    scaled = sp.convergence_ladders(2.0**j * x, e, variants, eps0=2.0**j * 1e-2)
    for b, s in zip(base, scaled):
        for metric in ("order_u", "order_v", "order_sigma"):
            assert abs(getattr(s, metric) - getattr(b, metric)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-900, max_value=900))
@example(900)
@example(-900)
def test_ladder_direction_power_of_two_scaling_is_bitwise(j):
    # the ladder divides E_dir by its Frobenius norm, which is exact under
    # power-of-two scaling, so 2^j E_dir is the same unit direction
    x, e = make_instance(6, 4, 70)
    variants = tuple(FormulaVariant)
    base = sp.convergence_ladders(x, e, variants)
    assert repr(sp.convergence_ladders(x, 2.0**j * e, variants)) == repr(base)


def test_ladder_direction_scaled_by_ten_fits_the_same_orders():
    # a factor that is not a power of two moves the unit direction by an ulp
    x, e = make_instance(6, 4, 70)
    base, scaled = (sp.convergence_ladder(x, s * e) for s in (1.0, 10.0))
    for metric in ("order_u", "order_v", "order_sigma"):
        assert abs(getattr(scaled, metric) - getattr(base, metric)) <= 1e-9
