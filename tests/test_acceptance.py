"""Acceptance gate.

Ten end-to-end criteria, each printing one verdict line as it runs.  The
tolerances here are the package's release bar and must not be loosened.
"""

import numpy as np

from helpers import make_instance, run_cli

import svdpert as sp
from svdpert import FormulaVariant
from svdpert.errors import GapTooSmall

BENCH_SV = (3.0, 2.2, 1.5, 1.0, 0.4)
BENCH_SEED = 42
BENCH_DIR_SEED = 7


def verdict(num, text):
    print(f"criterion {num:2d}: PASS - {text}")


def benchmark_pair():
    spec = sp.SpectrumSpec(n=8, p=5, singular_values=BENCH_SV, seed=BENCH_SEED)
    x = sp.matrix_with_spectrum(spec)
    e = sp.perturbation_direction(8, 5, BENCH_DIR_SEED)
    return x, e


def test_01_closed_form_matches_direct_solve():
    shapes = [(4, 3), (5, 3), (6, 4), (8, 5), (10, 6), (7, 6), (6, 6),
              (9, 4), (10, 3), (5, 5)]
    worst = 0.0
    count = 0
    for i, (n, p) in enumerate(shapes):
        for rep in range(10):
            x, e = make_instance(n, p, 1000 + 17 * i + rep)
            part = sp.partition_svd(sp.svd(x), 1)
            proj = sp.compute_projections(part, 1e-3 * e)
            co = sp.variant_coefficients(part, proj, FormulaVariant.CORRECTED)
            g2, h2 = sp.solve_coupled_system(part, proj)
            ref = np.concatenate([g2, h2])
            diff = float(np.linalg.norm(np.concatenate([co.g2, co.h2]) - ref))
            rel = diff / max(float(np.linalg.norm(ref)), 1e-30)
            worst = max(worst, rel)
            assert rel <= 1e-12
            count += 1
    assert count == 100
    verdict(1, f"closed forms match the dense solve on {count} instances "
               f"(worst relative difference {worst:.2e})")


def test_02_corrected_expansion_is_second_order():
    x, e = benchmark_pair()
    report = sp.convergence_ladder(x, e)
    for order in (report.order_u, report.order_v, report.order_sigma):
        assert 1.9 <= order <= 2.1
    assert report.min_r2 >= 0.99
    verdict(2, f"corrected orders u/v/sigma = {report.order_u:.4f}/"
               f"{report.order_v:.4f}/{report.order_sigma:.4f}, "
               f"min r2 {report.min_r2:.6f}")


def test_03_defective_variants_drop_to_first_order():
    x, e = benchmark_pair()
    flipped = sp.convergence_ladder(x, e, variant=FormulaVariant.SIGN_FLIPPED)
    assert 0.9 <= flipped.order_u <= 1.1
    assert 0.9 <= flipped.order_v <= 1.1
    dropped = sp.convergence_ladder(x, e, variant=FormulaVariant.U3_OMITTED)
    assert 0.9 <= dropped.order_u <= 1.1
    assert 1.9 <= dropped.order_v <= 2.1   # right vector is unaffected
    verdict(3, f"defective orders: sign-flip u/v = {flipped.order_u:.4f}/"
               f"{flipped.order_v:.4f}, dropped-complement u = "
               f"{dropped.order_u:.4f}")


def test_04_hand_solvable_2x2_case():
    delta = 1e-3
    x = np.diag([3.0, 1.0])
    exp = sp.expand_matrix(x, np.array([[0.0, delta], [delta, 0.0]]))
    target = np.array([1.0, delta / 2.0])
    tol = 1e-15 * (delta / 2.0)
    assert np.all(np.abs(exp.u_tilde - target) <= tol)
    assert np.all(np.abs(exp.v_tilde - target) <= tol)
    assert abs(exp.sigma_tilde - 3.0) <= tol

    e_dir = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    res = sp.residuals_at(x, e_dir, delta * np.sqrt(2.0))
    assert res.res_u <= 1e-8
    assert res.res_v <= 1e-8
    verdict(4, f"2x2 prediction exact to {tol:.1e}; residual vs exact "
               f"decomposition {max(res.res_u, res.res_v):.2e} <= 1e-8")


def test_05_complement_term_carries_the_tall_correction():
    eps = 1e-3
    x = np.zeros((3, 2))
    x[0, 0], x[1, 1] = 2.0, 1.0
    e = np.zeros((3, 2))
    e[2, 0] = eps
    exp = sp.expand_matrix(x, e)
    assert exp.u_tilde[2] == eps / 2.0
    assert np.array_equal(exp.v_tilde, np.array([1.0, 0.0]))

    e_dir = np.zeros((3, 2))
    e_dir[2, 0] = 1.0
    bad = sp.residuals_at(x, e_dir, eps, variant=FormulaVariant.U3_OMITTED)
    assert bad.res_u >= 0.4 * eps
    verdict(5, f"complement term reproduces eps/2 exactly; dropping it "
               f"leaves residual {bad.res_u:.2e} >= {0.4 * eps:.1e}")


def test_06_shape_audit_finds_exactly_the_formable_defects():
    tall = sp.shape_audit_as_printed(5, 3)
    assert len(tall.findings) == 3
    assert [f.errata_item for f in tall.findings] == [2, 3, 4]
    assert [f.kind for f in tall.findings] == [
        "missing-transpose", "omitted-factor", "missing-transpose"
    ]
    square = sp.shape_audit_as_printed(3, 3)
    assert len(square.findings) == 2
    assert [f.errata_item for f in square.findings] == [2, 4]
    verdict(6, "shape audit reports 3 findings for 5x3 and 2 for 3x3")


def test_07_transpose_duality_on_squares():
    worst = 0.0
    for seed in range(20):
        x, e = make_instance(6, 6, 7000 + seed)
        direct = sp.expand_matrix(x, 1e-3 * e)
        dual = sp.transpose_dual_expansion(x, 1e-3 * e)
        du = float(np.linalg.norm(
            sp.align_sign(direct.u_tilde, dual.u_tilde) - direct.u_tilde))
        dv = float(np.linalg.norm(
            sp.align_sign(direct.v_tilde, dual.v_tilde) - direct.v_tilde))
        ds = abs(dual.sigma_tilde - direct.sigma_tilde)
        worst = max(worst, du, dv, ds)
        assert max(du, dv, ds) <= 1e-12
    verdict(7, f"transpose duality holds on 20 squares "
               f"(worst difference {worst:.2e})")


def test_08_degenerate_gap_is_refused(tmp_path):
    sv = (3.0, 3.0 - 1e-10, 1.0)
    spec = sp.SpectrumSpec(n=4, p=3, singular_values=sv, seed=1)
    x = sp.matrix_with_spectrum(spec)
    raised = False
    try:
        sp.partition_svd(sp.svd(x), 1)
    except GapTooSmall as exc:
        raised = True
        assert exc.k == 1
    assert raised

    xf = tmp_path / "x.mtx"
    ef = tmp_path / "e.mtx"
    sp.write_matrix(xf, x)
    sp.write_matrix(ef, sp.perturbation_direction(4, 3, 2))
    code, _, err = run_cli(["expand", "--x", str(xf), "--e", str(ef)])
    assert code == 3
    assert "separation" in err
    verdict(8, "near-degenerate leading pair raises GapTooSmall and "
               "exits with code 3")


def test_09_zero_perturbation_is_the_identity():
    x, _ = benchmark_pair()
    part = sp.partition_svd(sp.svd(x), 1)
    zero = np.zeros((8, 5))
    proj = sp.compute_projections(part, zero)
    assert proj.phi1 == 0.0
    for field in (proj.f12, proj.f21, proj.f31):
        assert np.all(field == 0.0)
    for variant in FormulaVariant:
        exp = sp.expand_triplet(part, zero, variant)
        assert np.array_equal(exp.u_tilde, part.u1)
        assert np.array_equal(exp.v_tilde, part.v1)
        assert exp.sigma_tilde == part.sigma1
    verdict(9, "zero perturbation reproduces the unperturbed triplet "
               "bitwise for all variants")


def test_10_errata_command_demonstrates_all_five_defects():
    first = run_cli(["errata"])
    second = run_cli(["errata"])
    assert first[0] == 0
    assert first == second
    lines = first[1].splitlines()
    assert len(lines) == 6
    statuses = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert statuses == ["confirmed"] * 5
    verdict(10, "errata command confirms all five defects with "
                "byte-stable output and exit code 0")
