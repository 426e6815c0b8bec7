"""Expansion core tests.

Every derived quantity is checked against an oracle that does not share
its code path: hand-solved 2x2 and 3x2 cases, the dense block solve, the
exact decomposition of the perturbed matrix, and algebraic identities
(linearity, orthogonality of corrections, back substitution).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_instance

import svdpert as sp
from svdpert import FormulaVariant
from svdpert.errors import (
    DimensionMismatch,
    GapTooSmall,
    IndexOutOfRange,
    InvalidDims,
    SingularSystem,
)

DELTA = 1e-3


def diag_embedded(values, n):
    """n x p matrix holding diag(values) on its top block."""
    p = len(values)
    x = np.zeros((n, p))
    for j, v in enumerate(values):
        x[j, j] = v
    return x


# --------------------------------------------------------------- partition

def test_partition_square_diag():
    part = sp.partition_svd(sp.svd(np.diag([3.0, 2.0, 1.0])), 1)
    assert part.sigma1 == 3.0
    assert np.array_equal(part.u1, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(part.v1, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(part.Sigma2, np.array([2.0, 1.0]))
    assert np.array_equal(part.U2, np.eye(3)[:, 1:])
    assert np.array_equal(part.V2, np.eye(3)[:, 1:])
    assert not part.has_complement
    assert part.n == 3 and part.p == 3


def test_partition_tall_has_left_complement():
    x = diag_embedded([3.0, 2.0, 1.0], 5)
    part = sp.partition_svd(sp.svd(x), 1)
    assert part.has_complement
    assert part.U2.shape == (5, 2)
    # the complement of span(e1, e2, e3) keeps exactly the last two rows
    e = np.arange(1.0, 16.0).reshape(5, 3)
    proj = sp.compute_projections(part, e)
    assert np.array_equal(proj.f31, np.array([0.0, 0.0, 0.0, 10.0, 13.0]))


def test_partition_interior_triplet():
    part = sp.partition_svd(sp.svd(np.diag([3.0, 2.0, 1.0])), 2)
    assert part.sigma1 == 2.0
    assert np.array_equal(part.u1, np.array([0.0, 1.0, 0.0]))
    # remaining values keep their descending order
    assert np.array_equal(part.Sigma2, np.array([3.0, 1.0]))


def test_partition_gap_too_small():
    full = sp.Svd(U=np.eye(3), S=np.array([3.0, 3.0 - 1e-10, 1.0]), V=np.eye(3))
    with pytest.raises(GapTooSmall) as exc:
        sp.partition_svd(full, 1)
    assert exc.value.k == 1
    assert exc.value.gap <= 2e-10


def test_partition_zero_triplet_rejected():
    # sigma_k = 0 is never expandable even when separated
    full = sp.Svd(U=np.eye(3), S=np.array([3.0, 1.0, 0.0]), V=np.eye(3))
    with pytest.raises(GapTooSmall):
        sp.partition_svd(full, 3)


def test_partition_tall_gap_includes_zero_spectrum():
    # n > p: the complement behaves like singular value 0, so a tiny
    # sigma_p collides with it
    x = diag_embedded([3.0, 3e-9], 4)
    with pytest.raises(GapTooSmall):
        sp.partition_svd(sp.svd(x), 2)


def test_partition_index_and_orientation_errors():
    full = sp.svd(np.diag([3.0, 1.0]))
    with pytest.raises(IndexOutOfRange):
        sp.partition_svd(full, 0)
    with pytest.raises(IndexOutOfRange):
        sp.partition_svd(full, 3)
    with pytest.raises(InvalidDims):
        sp.partition_svd(sp.svd(np.ones((2, 3)) + np.eye(2, 3)), 1)


def test_triplet_gap_cases():
    full = sp.svd(np.diag([3.0, 2.0, 1.0]))
    assert sp.triplet_gap(full, 1) == 1.0
    assert sp.triplet_gap(full, 2) == 1.0
    tall = sp.svd(diag_embedded([3.0, 0.5], 4))
    # distance to sigma_1 is 2.5 but the zero spectrum is closer
    assert sp.triplet_gap(tall, 2) == 0.5
    # ... also when the zero comes from the right complement
    wide = sp.svd(np.array([[3.0, 0.0, 0.0], [0.0, 1e-3, 0.0]]))
    assert sp.triplet_gap(wide, 2) == 1e-3
    # square: no zero spectrum, but the mirror -sigma_3 lies 2 sigma_3 away
    assert sp.triplet_gap(sp.svd(np.diag([3.0, 2.0, 1e-3])), 3) == 2e-3
    # a 1 x 1 has no other value, only its mirror, whose distance rounds
    # down to the largest double when 2 sigma_1 overflows
    assert sp.triplet_gap(sp.svd(np.array([[5.0]])), 1) == 10.0
    assert sp.triplet_gap(sp.svd(np.array([[1.5e308]])), 1) == sys.float_info.max


@pytest.mark.parametrize("x", [
    sp.SplitMix64(11).normal_matrix(6, 4),
    sp.SplitMix64(11).normal_matrix(4, 6),
    # square with orthogonal rows and columns: exact in either orientation
    np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 1e-3]]),
], ids=["tall", "wide", "square"])
def test_triplet_gap_is_the_same_for_x_and_its_transpose(x):
    for k in range(1, min(x.shape) + 1):
        assert sp.triplet_gap(sp.svd(x), k) == sp.triplet_gap(sp.svd(x.T), k)


# ------------------------------------------------------------- projections

def test_projections_hand_case():
    part = sp.partition_svd(sp.svd(np.diag([3.0, 1.0])), 1)
    e = np.array([[0.0, DELTA], [DELTA, 0.0]])
    proj = sp.compute_projections(part, e)
    assert proj.phi1 == 0.0
    assert np.array_equal(proj.f12, np.array([DELTA]))
    assert np.array_equal(proj.f21, np.array([DELTA]))
    assert np.array_equal(proj.f31, np.zeros(2))


def test_projections_rank_one_alignment():
    part = sp.partition_svd(sp.svd(np.diag([3.0, 2.0, 1.0])), 1)
    e = np.outer(part.u1, part.v1)
    proj = sp.compute_projections(part, e)
    assert proj.phi1 == 1.0
    assert np.all(proj.f12 == 0.0)
    assert np.all(proj.f21 == 0.0)


def test_projections_zero_perturbation():
    x, _ = make_instance(5, 3, 2)
    part = sp.partition_svd(sp.svd(x), 1)
    proj = sp.compute_projections(part, np.zeros((5, 3)))
    assert proj.phi1 == 0.0
    assert np.all(proj.f12 == 0.0) and np.all(proj.f21 == 0.0)
    assert np.all(proj.f31 == 0.0)


def test_projections_shape_check():
    part = sp.partition_svd(sp.svd(np.diag([3.0, 1.0])), 1)
    with pytest.raises(DimensionMismatch):
        sp.compute_projections(part, np.zeros((3, 2)))


# ------------------------------------------------------------ coefficients

def test_coupled_solve_hand_case():
    part = sp.partition_svd(sp.svd(np.diag([3.0, 1.0])), 1)
    proj = sp.compute_projections(part, np.array([[0.0, DELTA], [DELTA, 0.0]]))
    g2, h2 = sp.solve_coupled_system(part, proj)
    # 3 g - h = delta, 3 h - g = delta  =>  g = h = delta / 2
    assert abs(g2[0] - DELTA / 2) <= 1e-18
    assert abs(h2[0] - DELTA / 2) <= 1e-18


def test_closed_form_hand_case_is_exact():
    part = sp.partition_svd(sp.svd(np.diag([3.0, 1.0])), 1)
    proj = sp.compute_projections(part, np.array([[0.0, DELTA], [DELTA, 0.0]]))
    co = sp.variant_coefficients(part, proj, FormulaVariant.CORRECTED)
    # (3 delta + 1 delta) / (9 - 1) = delta / 2: exact in floats
    assert co.g2[0] == DELTA / 2
    assert co.h2[0] == DELTA / 2
    assert co.theta1 == 0.0
    assert np.array_equal(co.g3, np.zeros(2))


def test_sign_flip_variant_hand_case():
    part = sp.partition_svd(sp.svd(np.diag([3.0, 1.0])), 1)
    proj = sp.compute_projections(part, np.array([[0.0, DELTA], [DELTA, 0.0]]))
    co = sp.variant_coefficients(part, proj, FormulaVariant.SIGN_FLIPPED)
    # (3 delta - 1 delta) / 8 = delta / 4
    assert co.g2[0] == DELTA / 4
    assert co.h2[0] == DELTA / 4
    # complement and value corrections are untouched by the sign defect
    assert co.theta1 == 0.0


def test_closed_form_matches_direct_solve_seeded():
    for seed in range(10):
        x, e = make_instance(6 + seed % 3, 4, 100 + seed)
        part = sp.partition_svd(sp.svd(x), 1)
        proj = sp.compute_projections(part, 1e-3 * e)
        co = sp.variant_coefficients(part, proj, FormulaVariant.CORRECTED)
        g2, h2 = sp.solve_coupled_system(part, proj)
        scale = max(float(np.linalg.norm(np.concatenate([g2, h2]))), 1e-30)
        diff = float(
            np.linalg.norm(np.concatenate([co.g2 - g2, co.h2 - h2]))
        )
        assert diff <= 1e-13 * max(scale, 1.0)


def test_coefficients_satisfy_coupled_equations():
    x, e = make_instance(7, 5, 31)
    part = sp.partition_svd(sp.svd(x), 1)
    proj = sp.compute_projections(part, e)
    co = sp.variant_coefficients(part, proj, FormulaVariant.CORRECTED)
    lhs1 = part.sigma1 * co.g2 - part.Sigma2 * co.h2
    lhs2 = part.sigma1 * co.h2 - part.Sigma2 * co.g2
    assert np.all(np.abs(lhs1 - proj.f21) <= 1e-14)
    assert np.all(np.abs(lhs2 - proj.f12) <= 1e-14)


def test_coupled_solve_single_column_is_empty():
    # p = 1: the coupled system has no unknowns
    x, e = make_instance(4, 1, 7)
    part = sp.partition_svd(sp.svd(x), 1)
    proj = sp.compute_projections(part, 1e-3 * e)
    g2, h2 = sp.solve_coupled_system(part, proj)
    co = sp.variant_coefficients(part, proj, FormulaVariant.CORRECTED)
    assert g2.shape == h2.shape == (0,)
    assert np.array_equal(g2, co.g2) and np.array_equal(h2, co.h2)


def test_closed_form_degenerate_denominator_guard():
    # bypass the partition gate to hit the closed form's own guard
    part = sp.SvdPartition(
        k=1,
        sigma1=3.0,
        u1=np.eye(3)[:, 0],
        v1=np.eye(2)[:, 0],
        Sigma2=np.array([3.0]),
        U2=np.eye(3)[:, 1:2],
        V2=np.eye(2)[:, 1:2],
    )
    proj = sp.Projections(
        phi1=0.0,
        f12=np.array([1.0]),
        f21=np.array([1.0]),
        f31=np.zeros(3),
    )
    for variant in FormulaVariant:
        with pytest.raises(GapTooSmall):
            sp.variant_coefficients(part, proj, variant)
    with pytest.raises(SingularSystem):
        sp.solve_coupled_system(part, proj)


# --------------------------------------------------------------- expansion

def test_expand_hand_2x2():
    exp = sp.expand_matrix(
        np.diag([3.0, 1.0]), np.array([[0.0, DELTA], [DELTA, 0.0]])
    )
    assert np.array_equal(exp.u_tilde, np.array([1.0, DELTA / 2]))
    assert np.array_equal(exp.v_tilde, np.array([1.0, DELTA / 2]))
    assert exp.sigma_tilde == 3.0


def test_expand_2x2_against_exact_rotation():
    # X + E is symmetric positive definite with rotation angle
    # theta = arctan(delta) / 2; in the affine chart the exact right
    # vector is (1, tan theta) and the prediction is (1, delta / 2)
    x = np.diag([3.0, 1.0])
    e_dir = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    eps = DELTA * np.sqrt(2.0)
    res = sp.residuals_at(x, e_dir, eps)
    delta_eff = eps / np.sqrt(2.0)
    theta = np.arctan(delta_eff) / 2.0
    oracle = abs(np.tan(theta) - delta_eff / 2.0)
    assert abs(res.res_v - oracle) <= 1e-14
    assert res.res_v <= 1e-8
    # exact value shift is sqrt(1 + delta^2) - 1, prediction shift is 0
    sigma_oracle = np.sqrt(1.0 + delta_eff**2) - 1.0
    assert abs(res.res_sigma - sigma_oracle) <= 1e-14


def test_expand_3x2_complement_term():
    x = diag_embedded([2.0, 1.0], 3)
    eps = 1e-3
    e = np.zeros((3, 2))
    e[2, 0] = eps
    exp = sp.expand_matrix(x, e)
    assert np.array_equal(exp.u_tilde, np.array([1.0, 0.0, eps / 2.0]))
    assert np.array_equal(exp.v_tilde, np.array([1.0, 0.0]))
    assert exp.sigma_tilde == 2.0
    dropped = sp.expand_matrix(x, e, variant=FormulaVariant.U3_OMITTED)
    assert np.array_equal(dropped.u_tilde, np.array([1.0, 0.0, 0.0]))


def test_expand_3x2_defect_residual_is_first_order():
    x = diag_embedded([2.0, 1.0], 3)
    e_dir = np.zeros((3, 2))
    e_dir[2, 0] = 1.0
    eps = 1e-3
    good = sp.residuals_at(x, e_dir, eps)
    bad = sp.residuals_at(x, e_dir, eps, variant=FormulaVariant.U3_OMITTED)
    assert good.res_u <= 1e-9
    assert bad.res_u >= 0.4 * eps


def test_expansion_is_linear_in_perturbation():
    x, e = make_instance(6, 4, 8)
    part = sp.partition_svd(sp.svd(x), 1)
    corrected = FormulaVariant.CORRECTED
    half = sp.variant_coefficients(
        part, sp.compute_projections(part, 0.5 * e), corrected
    )
    full = sp.variant_coefficients(part, sp.compute_projections(part, e), corrected)
    # halving E halves every coefficient bitwise (power-of-two scaling)
    assert np.array_equal(full.g2, 2.0 * half.g2)
    assert np.array_equal(full.h2, 2.0 * half.h2)
    assert np.array_equal(full.g3, 2.0 * half.g3)
    assert full.theta1 == 2.0 * half.theta1
    # assembled vectors pick up one rounding against u1/v1, nothing more
    one = sp.expand_triplet(part, 0.5 * e)
    two = sp.expand_triplet(part, e)
    du = (two.u_tilde - part.u1) - 2.0 * (one.u_tilde - part.u1)
    dv = (two.v_tilde - part.v1) - 2.0 * (one.v_tilde - part.v1)
    assert np.all(np.abs(du) <= 1e-15)
    assert np.all(np.abs(dv) <= 1e-15)


def test_square_input_complement_variants_coincide_bitwise():
    x, e = make_instance(5, 5, 21)
    a = sp.expand_matrix(x, 1e-3 * e)
    b = sp.expand_matrix(x, 1e-3 * e, variant=FormulaVariant.U3_OMITTED)
    assert np.array_equal(a.u_tilde, b.u_tilde)
    assert np.array_equal(a.v_tilde, b.v_tilde)
    assert a.sigma_tilde == b.sigma_tilde
    c = sp.expand_matrix(x, 1e-3 * e, variant=FormulaVariant.SIGN_FLIPPED)
    d = sp.expand_matrix(x, 1e-3 * e, variant=FormulaVariant.BOTH_DEFECTS)
    assert np.array_equal(c.u_tilde, d.u_tilde)


def test_corrections_are_orthogonal_to_unperturbed_vectors():
    x, e = make_instance(7, 4, 13)
    part = sp.partition_svd(sp.svd(x), 1)
    exp = sp.expand_triplet(part, 1e-3 * e)
    assert abs((exp.u_tilde - part.u1) @ part.u1) <= 1e-13
    assert abs((exp.v_tilde - part.v1) @ part.v1) <= 1e-13


def test_expand_matrix_wide_input_swaps_roles():
    x, e = make_instance(6, 3, 17)
    tall = sp.expand_matrix(x, 1e-3 * e)
    wide = sp.expand_matrix(x.T, 1e-3 * e.T)
    assert np.array_equal(wide.u_tilde, tall.v_tilde)
    assert np.array_equal(wide.v_tilde, tall.u_tilde)
    assert wide.sigma_tilde == tall.sigma_tilde


def test_expand_matrix_rejects_unequal_shapes():
    with pytest.raises(DimensionMismatch, match="equal shapes"):
        sp.expand_matrix(np.ones((4, 3)), np.ones((3, 4)))


def test_expand_zero_perturbation_is_identity():
    x, _ = make_instance(5, 3, 40)
    part = sp.partition_svd(sp.svd(x), 1)
    for variant in FormulaVariant:
        exp = sp.expand_triplet(part, np.zeros((5, 3)), variant)
        assert np.array_equal(exp.u_tilde, part.u1)
        assert np.array_equal(exp.v_tilde, part.v1)
        assert exp.sigma_tilde == part.sigma1


def test_transpose_dual_agrees_on_squares():
    for seed in range(5):
        x, e = make_instance(6, 6, 300 + seed)
        direct = sp.expand_matrix(x, 1e-3 * e)
        dual = sp.transpose_dual_expansion(x, 1e-3 * e)
        u = sp.align_sign(direct.u_tilde, dual.u_tilde)
        v = sp.align_sign(direct.v_tilde, dual.v_tilde)
        assert float(np.linalg.norm(u - direct.u_tilde)) <= 1e-12
        assert float(np.linalg.norm(v - direct.v_tilde)) <= 1e-12
        assert abs(dual.sigma_tilde - direct.sigma_tilde) <= 1e-12


def full_basis_oracle(x, e, k):
    """Corrected expansion of triplet k built from LAPACK's full SVD, with
    the complement term in its printed form U3 U3^T E v1 / sigma1.

    A zero singular value sits in U2 with an arbitrary LAPACK vector; its
    g2 and h2 terms do not depend on that vector's sign, nor does U3 U3^T.
    """
    swapped = x.shape[0] < x.shape[1]
    if swapped:
        x, e = x.T, e.T
    p = x.shape[1]
    U, S, Vt = np.linalg.svd(x, full_matrices=True)
    keep = np.arange(p) != k - 1
    u1, v1, s1 = U[:, k - 1], Vt[k - 1], S[k - 1]
    U2, V2, S2, U3 = U[:, :p][:, keep], Vt[keep].T, S[keep], U[:, p:]
    Ev1 = e @ v1
    f21, f12 = U2.T @ Ev1, V2.T @ (e.T @ u1)
    denom = s1**2 - S2**2
    u = u1 + U2 @ ((s1 * f21 + S2 * f12) / denom) + U3 @ (U3.T @ Ev1) / s1
    v = v1 + V2 @ ((s1 * f12 + S2 * f21) / denom)
    sigma = s1 + float(u1 @ Ev1)
    return (sigma, v, u) if swapped else (sigma, u, v)


def oracle_cases(seed):
    """Seeded (X, E_dir, k) for tall, wide, p = 1, k = p, and tall and
    square inputs with an exactly zero singular value."""
    tall, tall_e = make_instance(7, 3, seed)
    x, e = make_instance(6, 4, seed)
    column, column_e = make_instance(5, 1, seed)
    deficient = diag_embedded([3.0, 2.0, 0.0], 5)
    return [
        (tall, tall_e, 1 + seed % 3),
        (x.T, e.T, 1 + seed % 4),
        (column, column_e, 1),
        (x, e, 4),
        (deficient, sp.perturbation_direction(5, 3, seed), 1 + seed % 2),
        (deficient[:3], sp.perturbation_direction(3, 3, seed), 1 + seed % 2),
    ]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_expand_matches_full_basis_oracle(seed):
    for x, e_dir, k in oracle_cases(seed):
        e = 1e-3 * e_dir
        exp = sp.expand_matrix(x, e, k)
        sigma_o, u_o, v_o = full_basis_oracle(x, e, k)
        # (u~, v~) is defined up to one joint sign; align the oracle to v~
        if float(exp.v_tilde @ v_o) < 0.0:
            u_o, v_o = -u_o, -v_o
        assert abs(exp.sigma_tilde - sigma_o) <= 1e-12 * abs(sigma_o)
        assert np.linalg.norm(exp.u_tilde - u_o) <= 1e-12 * np.linalg.norm(u_o)
        assert np.linalg.norm(exp.v_tilde - v_o) <= 1e-12 * np.linalg.norm(v_o)


def test_expand_triplet_returns_its_projections_and_coefficients():
    x, e = make_instance(6, 3, 11)
    part = sp.partition_svd(sp.svd(x), 1)
    exp = sp.expand_triplet(part, 1e-3 * e, FormulaVariant.SIGN_FLIPPED)
    proj = sp.compute_projections(part, 1e-3 * e)
    co = sp.variant_coefficients(part, proj, FormulaVariant.SIGN_FLIPPED)
    for name in ("f12", "f21", "f31"):
        assert np.array_equal(getattr(exp.projections, name), getattr(proj, name))
    for name in ("g2", "g3", "h2"):
        assert np.array_equal(getattr(exp.coefficients, name), getattr(co, name))
    assert exp.projections.phi1 == proj.phi1
    assert exp.coefficients.theta1 == co.theta1


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-900, max_value=900),
       st.integers(min_value=0, max_value=2**32))
@example(j=900, seed=3)
@example(j=-900, seed=3)
@example(j=520, seed=3)
@example(j=-520, seed=3)
@example(j=-600, seed=3)
def test_expand_power_of_two_scaling_is_bitwise(j, seed):
    # scaling X and E by 2^j scales every value by exactly 2^j and leaves
    # every vector and coefficient bitwise in place, across the double range
    for n, p, wide in ((6, 4, False), (6, 4, True), (4, 4, False), (5, 1, False)):
        x, e = make_instance(n, p, seed)
        x, e = (x.T, e.T) if wide else (x, e)
        for k in range(1, p + 1):
            for variant in FormulaVariant:
                base = sp.expand_matrix(x, DELTA * e, k, variant)
                got = sp.expand_matrix(np.ldexp(x, j), np.ldexp(DELTA * e, j),
                                       k, variant)
                for a, b, names in ((got, base, ("u_tilde", "v_tilde")),
                                    (got.coefficients, base.coefficients,
                                     ("g2", "g3", "h2"))):
                    for name in names:
                        assert np.array_equal(getattr(a, name),
                                              getattr(b, name)), name
                for a, b in ((got.sigma1, base.sigma1),
                             (got.sigma_tilde, base.sigma_tilde),
                             (got.coefficients.theta1, base.coefficients.theta1),
                             (got.projections.phi1, base.projections.phi1)):
                    assert a == math.ldexp(b, j)
                assert np.array_equal(got.projections.f31,
                                      np.ldexp(base.projections.f31, j))


# ------------------------------------------------------------- shape audit

def test_shape_audit_tall_reports_three_findings():
    findings = sp.shape_audit_as_printed(5, 3)
    assert len(findings) == 3
    items = [f.item for f in findings]
    kinds = [f.kind for f in findings]
    assert items == [2, 3, 4]
    assert kinds.count("missing-transpose") == 2
    assert kinds.count("omitted-factor") == 1
    # concrete dimensions appear in the explanation strings
    assert "2x2 @ V2 3x2" in findings[0].dims(5, 3)[1]
    assert "2 != 3" in findings[0].dims(5, 3)[1]


def test_shape_audit_square_drops_complement_finding():
    findings = sp.shape_audit_as_printed(3, 3)
    assert len(findings) == 2
    assert [f.item for f in findings] == [2, 4]
    assert all(f.kind == "missing-transpose" for f in findings)


def test_shape_audit_minimal_widths():
    findings = sp.shape_audit_as_printed(4, 2)
    assert len(findings) == 3
    assert "1x1 @ V2 2x1" in findings[0].dims(4, 2)[1]


def test_shape_audit_findings_are_the_catalog_audit_rows():
    audited = {d.item: d for d in sp.CATALOG if d.kind}
    assert sorted(audited) == [2, 3, 4]
    for p in range(2, 9):
        for n in range(p, 12):
            findings = sp.shape_audit_as_printed(n, p)
            assert [f.item for f in findings] == (
                [2, 3, 4] if n > p else [2, 4])
            dims = {"n": n, "p": p, "m": p - 1, "c": n - p}
            for f in findings:
                d = audited[f.item]
                assert (f.kind, f.term) == (d.kind, d.term)
                assert f.dims(n, p) == (d.expected.format(**dims),
                                        d.printed.format(**dims))


def test_shape_audit_rejects_bad_dims():
    with pytest.raises(InvalidDims):
        sp.shape_audit_as_printed(2, 3)
    with pytest.raises(InvalidDims):
        sp.shape_audit_as_printed(3, 1)
