"""Command-line behavior: output grammar, file handling, exit codes.

Commands run in process through main(); tests/test_processes.py runs them
in fresh interpreters and through run()'s sys.exit.
"""

import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import beyond_double_range, parse_kv, run_child, run_cli

import svdpert as sp
import svdpert.cli
import svdpert.convergence
import svdpert.errors
import svdpert.mmio
import svdpert.perturbation
from svdpert import FormulaVariant

BENCH_SV = "3,2.2,1.5,1,0.4"
README = Path(__file__).resolve().parent.parent / "README.md"


def write_benchmark(tmp_path):
    x = tmp_path / "x.mtx"
    e = tmp_path / "e.mtx"
    code, _, err = run_cli(
        ["gen", "--n", "8", "--p", "5", "--sv", BENCH_SV, "--seed", "42",
         "--out", str(x)]
    )
    assert code == 0, err
    sp.write_matrix(e, sp.perturbation_direction(8, 5, 7))
    return x, e


# --------------------------------------------------------------------- gen

def test_gen_writes_matrix_with_spectrum(tmp_path):
    out = tmp_path / "m.mtx"
    code, stdout, stderr = run_cli(
        ["gen", "--n", "4", "--p", "3", "--sv", "3,2,1", "--seed", "5",
         "--out", str(out)]
    )
    assert (code, stdout, stderr) == (0, "", "")
    got = sp.svd(sp.read_matrix(out)).S
    assert np.all(np.abs(got - np.array([3.0, 2.0, 1.0])) <= 1e-12 * 3.0)


def test_gen_output_is_byte_stable(tmp_path):
    sv = ",".join(repr(3.0 * 0.9**j) for j in range(7))
    runs = []
    for name in ("a.mtx", "b.mtx"):
        out = tmp_path / name
        code, _, _ = run_cli(["gen", "--n", "31", "--p", "7", "--sv", sv,
                              "--seed", "18446744073709551615", "--out", str(out)])
        assert code == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


def test_gen_rejects_unparsable_sv(tmp_path):
    code, _, err = run_cli(
        ["gen", "--n", "3", "--p", "2", "--sv", "3,two", "--out",
         str(tmp_path / "m.mtx")]
    )
    assert code == 2
    assert "--sv" in err


def test_gen_rejects_invalid_spectrum(tmp_path):
    code, _, err = run_cli(
        ["gen", "--n", "3", "--p", "2", "--sv", "1,3", "--out",
         str(tmp_path / "m.mtx")]
    )
    assert code == 2
    assert "error" in err


def test_gen_rejects_bad_seed(tmp_path):
    code, _, err = run_cli(
        ["gen", "--n", "3", "--p", "2", "--sv", "3,1", "--seed", "-1",
         "--out", str(tmp_path / "m.mtx")]
    )
    assert code == 2
    assert err == "error: seed must be an integer in [0, 2^64), got -1\n"


def test_gen_unwritable_path_is_io_error(tmp_path):
    code, _, err = run_cli(
        ["gen", "--n", "3", "--p", "2", "--sv", "3,1", "--out",
         str(tmp_path / "no" / "dir" / "m.mtx")]
    )
    assert code == 1
    assert "error" in err


# ------------------------------------------------------------------ expand

def test_expand_hand_case(tmp_path):
    x, e = tmp_path / "x.mtx", tmp_path / "e.mtx"
    sp.write_matrix(x, np.diag([3.0, 1.0]))
    sp.write_matrix(e, np.array([[0.0, 1e-3], [1e-3, 0.0]]))
    code, stdout, _ = run_cli(["expand", "--x", str(x), "--e", str(e)])
    assert code == 0
    kv = parse_kv(stdout)
    assert kv["rows"] == "2" and kv["cols"] == "2"
    assert kv["k"] == "1"
    assert kv["variant"] == "corrected"
    assert kv["transposed"] == "no"
    assert float(kv["sigma1"]) == 3.0
    assert float(kv["theta1"]) == 0.0
    assert float(kv["sigma_tilde"]) == 3.0
    u = [float(t) for t in kv["u_tilde"].split()]
    v = [float(t) for t in kv["v_tilde"].split()]
    assert u == [1.0, 5e-4]
    assert v == [1.0, 5e-4]
    assert [float(t) for t in kv["g2"].split()] == [5e-4]
    assert [float(t) for t in kv["h2"].split()] == [5e-4]
    # square input: no complement, so both norms are exactly zero
    assert float(kv["f31_norm"]) == 0.0 and float(kv["g3_norm"]) == 0.0
    assert not {"f31", "g3", "F22", "F32"} & kv.keys()


def test_expand_wide_input_reports_transposed(tmp_path):
    x, e = tmp_path / "x.mtx", tmp_path / "e.mtx"
    sp.write_matrix(x, np.diag([3.0, 1.0, 0.5])[:2, :])  # 2 x 3
    dir23 = sp.perturbation_direction(2, 3, 4)
    sp.write_matrix(e, 1e-3 * dir23)
    code, stdout, _ = run_cli(["expand", "--x", str(x), "--e", str(e)])
    assert code == 0
    kv = parse_kv(stdout)
    assert kv["transposed"] == "yes"
    assert len(kv["u_tilde"].split()) == 2
    assert len(kv["v_tilde"].split()) == 3
    # the transposed problem is 3x2, so E reaches its complement
    f31_norm, g3_norm = float(kv["f31_norm"]), float(kv["g3_norm"])
    assert f31_norm > 0.0
    assert abs(g3_norm - f31_norm / float(kv["sigma1"])) <= 1e-14 * g3_norm


def test_expand_variant_flag(tmp_path):
    x, e = tmp_path / "x.mtx", tmp_path / "e.mtx"
    sp.write_matrix(x, np.diag([3.0, 1.0]))
    sp.write_matrix(e, np.array([[0.0, 1e-3], [1e-3, 0.0]]))
    code, stdout, _ = run_cli(
        ["expand", "--x", str(x), "--e", str(e), "--variant", "sign-flipped"]
    )
    assert code == 0
    kv = parse_kv(stdout)
    assert [float(t) for t in kv["g2"].split()] == [2.5e-4]


def test_expand_unequal_shapes_is_usage_error(tmp_path):
    x, e = tmp_path / "x.mtx", tmp_path / "e.mtx"
    sp.write_matrix(x, sp.SplitMix64(3).normal_matrix(5, 3))
    sp.write_matrix(e, sp.SplitMix64(4).normal_matrix(3, 5))
    code, stdout, err = run_cli(["expand", "--x", str(x), "--e", str(e)])
    assert (code, stdout) == (2, "")
    assert "equal shapes" in err


def test_expand_k_out_of_range(tmp_path):
    # the library's triplet_gap owns the range check for both commands
    x, e = tmp_path / "x.mtx", tmp_path / "e.mtx"
    sp.write_matrix(x, np.diag([3.0, 1.0]))
    sp.write_matrix(e, np.eye(2))
    line = "error: k must be in 1..2, got 3\n"
    assert run_cli(["expand", "--x", str(x), "--e", str(e), "--k", "3"]) == (
        2, "", line)
    assert run_cli(["verify", "--x", str(x), "--edir", str(e), "--k", "3"]) == (
        2, "", line)


def test_expand_missing_file_is_io_error(tmp_path):
    code, _, _ = run_cli(
        ["expand", "--x", str(tmp_path / "nope.mtx"), "--e",
         str(tmp_path / "nope.mtx")]
    )
    assert code == 1


def test_expand_corrupt_file_is_io_error(tmp_path):
    x = tmp_path / "x.mtx"
    x.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n", "ascii")
    code, _, err = run_cli(["expand", "--x", str(x), "--e", str(x)])
    assert code == 1
    assert "line" in err


def test_expand_degenerate_gap_exits_3(tmp_path):
    x, e = tmp_path / "x.mtx", tmp_path / "e.mtx"
    code, _, _ = run_cli(
        ["gen", "--n", "4", "--p", "3", "--sv", "3,2.9999999999,1",
         "--seed", "1", "--out", str(x)]
    )
    assert code == 0
    sp.write_matrix(e, sp.perturbation_direction(4, 3, 2))
    code, _, err = run_cli(["expand", "--x", str(x), "--e", str(e)])
    assert code == 3
    assert "separation" in err


def test_expand_far_scaled_input_is_scaled_output(tmp_path):
    x, e_dir = write_benchmark(tmp_path)
    e, big_x, big_e = (tmp_path / f"{name}.mtx"
                       for name in ("small_e", "big_x", "big_e"))
    sp.write_matrix(e, 1e-3 * sp.read_matrix(e_dir))
    sp.write_matrix(big_x, 1e160 * sp.read_matrix(x))
    sp.write_matrix(big_e, 1e157 * sp.read_matrix(e_dir))
    _, stdout, _ = run_cli(["expand", "--x", str(x), "--e", str(e)])
    code, big_stdout, err = run_cli(
        ["expand", "--x", str(big_x), "--e", str(big_e)])
    assert code == 0, err
    base, big = parse_kv(stdout), parse_kv(big_stdout)
    # the two norms are frobenius_norm's; on this input a norm summed by
    # BLAS's ddot differs from it in the last bit
    exp = sp.expand_matrix(sp.read_matrix(x), sp.read_matrix(e), 1,
                           FormulaVariant.CORRECTED)
    for key, v in (("f31_norm", exp.projections.f31),
                   ("g3_norm", exp.coefficients.g3)):
        assert base[key] == svdpert.mmio._fmt(sp.frobenius_norm(v[None])), key
    for key, scale in (("sigma1", 1e160), ("f31_norm", 1e160),
                       ("g3_norm", 1.0), ("g2", 1.0), ("u_tilde", 1.0)):
        want = [scale * float(t) for t in base[key].split()]
        got = [float(t) for t in big[key].split()]
        assert got == pytest.approx(want, rel=1e-12), key


@pytest.mark.parametrize("case, message", [
    ("spectrum", "the largest singular value of X lies beyond the double range"),
    ("sigma_tilde", "a result of the expansion lies beyond the double range"),
    ("coefficients", "a result of the expansion lies beyond the double range"),
    ("f31_norm", "the Frobenius norm lies beyond the double range"),
])
def test_expand_result_beyond_double_range_exits_2(tmp_path, case, message):
    # SpectrumOverflow before anything is printed, and no RuntimeWarning
    # (which the suite raises as an error)
    x, e = tmp_path / "x.mtx", tmp_path / "e.mtx"
    for path, a in zip((x, e), beyond_double_range(case)):
        sp.write_matrix(path, a)
    assert run_cli(["expand", "--x", str(x), "--e", str(e)]) == (
        2, "", f"error: {message}\n")


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(3, 2), (2, 3), (4, 4), (5, 3), (3, 1), (1, 3), (2, 2)]),
       seed=st.integers(0, 2**32),
       i=st.integers(0, 1023) | st.integers(1010, 1023),
       j=st.integers(0, 1023) | st.integers(1010, 1023))
def test_expand_prints_finite_numbers_or_refuses(tmp_path_factory, shape, seed, i, j):
    # X and E scaled by 2^i and 2^j, up to the top binade: expand prints
    # only finite numbers, or one error line with exit code 2
    stream = sp.SplitMix64(seed)
    with np.errstate(over="ignore"):
        x, e = (np.ldexp(stream.normal_matrix(*shape), s) for s in (i, j))
    assume(np.isfinite(x).all() and np.isfinite(e).all())
    d = tmp_path_factory.mktemp("expand")
    paths = [str(d / "x.mtx"), str(d / "e.mtx")]
    for path, a in zip(paths, (x, e)):
        sp.write_matrix(path, a)
    code, stdout, err = run_cli(["expand", "--x", paths[0], "--e", paths[1]])
    if code == 0:
        block = parse_kv(stdout)
        for key in ("variant", "transposed"):
            del block[key]
        assert all(math.isfinite(float(t)) for v in block.values() for t in v.split())
    else:
        assert (code, stdout) == (2, ""), err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["expand", "verify"])
def test_svd_convergence_failure_exits_1(tmp_path, monkeypatch, command):
    x, e = write_benchmark(tmp_path)
    one_sweep = functools.partial(sp.svd, max_sweeps=1)
    monkeypatch.setattr(svdpert.perturbation, "svd", one_sweep)
    monkeypatch.setattr(svdpert.convergence, "svd", one_sweep)
    e_flag = "--e" if command == "expand" else "--edir"
    code, stdout, err = run_cli([command, "--x", str(x), e_flag, str(e)])
    assert code == 1
    assert "did not converge" in err
    assert stdout == ""


# ------------------------------------------------------------------ verify

def test_verify_benchmark_corrected(tmp_path):
    x, e = write_benchmark(tmp_path)
    out = tmp_path / "report.csv"
    code, stdout, err = run_cli(
        ["verify", "--x", str(x), "--edir", str(e), "--out", str(out)]
    )
    assert code == 0, err
    kv = parse_kv(stdout)
    assert kv["variant"] == "corrected"
    assert kv["count"] == "8"
    for key in ("order_u", "order_v", "order_sigma"):
        assert 1.9 <= float(kv[key]) <= 2.1
    for key in ("r2_u", "r2_v", "r2_sigma"):
        assert float(kv[key]) >= 0.99
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 8 + 3


def test_verify_ladder_defaults_are_the_library_signature(tmp_path, monkeypatch):
    # omitted ladder flags reach convergence_ladders' own defaults, so a
    # new default there changes the CLI too
    x, e = write_benchmark(tmp_path)
    out = tmp_path / "report.csv"
    ladders = svdpert.convergence.convergence_ladders
    k, _, factor, count = ladders.__defaults__
    monkeypatch.setattr(ladders, "__defaults__", (k, 2.0**-7, factor, count))
    code, _, err = run_cli(
        ["verify", "--x", str(x), "--edir", str(e), "--out", str(out)]
    )
    assert code == 0, err
    assert out.read_text().splitlines()[1].split(",")[1] == "0.0078125"


def test_verify_defective_variant_first_order(tmp_path):
    x, e = write_benchmark(tmp_path)
    code, stdout, _ = run_cli(
        ["verify", "--x", str(x), "--edir", str(e), "--variant",
         "sign-flipped"]
    )
    assert code == 0
    kv = parse_kv(stdout)
    assert 0.9 <= float(kv["order_u"]) <= 1.1
    assert 0.9 <= float(kv["order_v"]) <= 1.1


def test_verify_r2_gate_exits_4(tmp_path, monkeypatch):
    # no fit reaches r2 > 1, so the gate refuses an otherwise clean run
    x, e = write_benchmark(tmp_path)
    out = tmp_path / "report.csv"
    monkeypatch.setattr(svdpert.convergence, "R2_GATE", 1.5)
    code, stdout, err = run_cli(
        ["verify", "--x", str(x), "--edir", str(e), "--out", str(out)]
    )
    assert code == 4
    assert len(stdout.splitlines()) == 8
    assert list(parse_kv(stdout)) == [
        "variant", "count", "order_u", "r2_u", "order_v", "r2_v",
        "order_sigma", "r2_sigma",
    ]
    assert "fit unreliable" in err
    assert len(out.read_text().splitlines()) == 1 + 8 + 3


def test_verify_prints_and_writes_every_fit_of_the_report(tmp_path, monkeypatch):
    # verify and its CSV loop over report.fits, so a fourth metric reaches
    # both with no other edit
    x, e = write_benchmark(tmp_path)
    ladder = svdpert.cli.convergence_ladder

    def with_w(*args, **kwargs):
        report = ladder(*args, **kwargs)
        return report._replace(fits=(*report.fits, sp.MetricFit("w", 1.25, 0.99)))

    runs = []
    for patch in (ladder, with_w):
        monkeypatch.setattr(svdpert.cli, "convergence_ladder", patch)
        out = tmp_path / f"{patch.__name__}.csv"
        code, stdout, err = run_cli(
            ["verify", "--x", str(x), "--edir", str(e), "--out", str(out)]
        )
        assert code == 0, err
        runs.append((stdout, out.read_text()))
    (stdout, csv), (stdout_w, csv_w) = runs
    assert stdout_w == stdout + "order_w: %.17g\nr2_w: %.17g\n" % (1.25, 0.99)
    assert csv_w == csv + "order_w,%.17g,%.17g\n" % (1.25, 0.99)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-900, max_value=900))
@example(j=900)
@example(j=-900)
def test_verify_direction_power_of_two_scaling_is_bitwise(tmp_path_factory, j):
    d = tmp_path_factory.mktemp("scaled")
    x, e = write_benchmark(d)
    scaled = d / "scaled.mtx"
    sp.write_matrix(scaled, sp.read_matrix(e) * 2.0**j)
    runs = []
    for edir in (e, scaled):
        out = d / f"{edir.stem}.csv"
        code, stdout, err = run_cli(
            ["verify", "--x", str(x), "--edir", str(edir), "--out", str(out)]
        )
        runs.append((code, stdout, err, out.read_bytes()))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


# A factor that is not a power of two moves the normalized direction by
# an ulp, so the orders agree closely but not bitwise; power-of-two scaling
# is pinned bitwise above.
@pytest.mark.parametrize("scale", [1e170, 10.0, 1e-170])
def test_verify_far_scaled_direction_is_normalized(tmp_path, scale):
    x, e = write_benchmark(tmp_path)
    scaled = tmp_path / "scaled.mtx"
    sp.write_matrix(scaled, scale * sp.read_matrix(e))
    a = run_cli(["verify", "--x", str(x), "--edir", str(e)])
    b = run_cli(["verify", "--x", str(x), "--edir", str(scaled)])
    assert b[0] == a[0] == 0, b[2]
    ka, kb = parse_kv(a[1]), parse_kv(b[1])
    for key in ("order_u", "order_v", "order_sigma"):
        assert abs(float(kb[key]) - float(ka[key])) <= 1e-9


def test_verify_direction_norm_beyond_double_range(tmp_path):
    # the Frobenius norm of 1e308 entries overflows; the direction is
    # divided by it in scaled form, so the run is the 2^-1000 copy's
    x = tmp_path / "x.mtx"
    sp.write_matrix(x, sp.matrix_with_spectrum(
        sp.SpectrumSpec(n=4, p=3, singular_values=(3.0, 2.0, 1.0), seed=0)))
    runs = []
    for name, shift in (("huge", 0), ("scaled", -1000)):
        edir, out = tmp_path / f"{name}.mtx", tmp_path / f"{name}.csv"
        sp.write_matrix(edir, np.ldexp(np.full((4, 3), 1e308), shift))
        code, stdout, err = run_cli(
            ["verify", "--x", str(x), "--edir", str(edir), "--out", str(out)]
        )
        runs.append((code, stdout, err, out.read_bytes()))
    assert runs[0][0] == 0, runs[0][2]
    assert runs[0] == runs[1]


def test_verify_zero_direction_is_usage_error(tmp_path):
    x, e = write_benchmark(tmp_path)
    zero = tmp_path / "zero.mtx"
    sp.write_matrix(zero, np.zeros((8, 5)))
    code, _, err = run_cli(["verify", "--x", str(x), "--edir", str(zero)])
    assert code == 2
    assert "zero norm" in err


def test_verify_count_too_small_is_usage_error(tmp_path):
    x, e = write_benchmark(tmp_path)
    code, _, _ = run_cli(
        ["verify", "--x", str(x), "--edir", str(e), "--count", "2"]
    )
    assert code == 2


def test_verify_eps0_above_gap_guard_is_usage_error(tmp_path):
    x, e = write_benchmark(tmp_path)
    assert run_cli(["verify", "--x", str(x), "--edir", str(e), "--eps0", "0.5"]) == (
        2, "", "error: eps0 0.5 must stay below 0.1 * spectral gap (8.000e-02)\n")


@pytest.mark.parametrize("value, shown", [("inf", "inf"), ("nan", "nan"), ("-1", "-1.0")])
def test_verify_eps0_must_be_finite_and_positive(tmp_path, value, shown):
    # the message names the rule the check applies, also for inf and nan
    x, e = write_benchmark(tmp_path)
    assert run_cli(["verify", "--x", str(x), "--edir", str(e), f"--eps0={value}"]) == (
        2, "", f"error: eps0 must be finite and positive, got {shown}\n")


@pytest.mark.parametrize("flags", [["--factor", "1e-300", "--count", "4"],
                                   ["--count", "1100"]])
def test_verify_underflowing_ladder_is_usage_error(tmp_path, flags):
    # a ladder whose epsilons underflow is a flag fault, found before the
    # rungs are solved rather than as too few samples above the floor
    x, e = write_benchmark(tmp_path)
    assert run_cli(["verify", "--x", str(x), "--edir", str(e), *flags]) == (
        2, "", "error: ladder epsilons must be strictly positive\n")


def test_verify_noise_floor_exits_4(tmp_path):
    # at eps0 = 1e-8 every corrected residual sits below the fit floor
    x, e = write_benchmark(tmp_path)
    code, _, err = run_cli(
        ["verify", "--x", str(x), "--edir", str(e), "--eps0", "1e-8"]
    )
    assert code == 4
    assert "noise floor" in err


def test_verify_annihilated_rung_exits_2(tmp_path):
    # the fourth rung, epsilon 2^-20, would be diag(1, 0), sigma_2 moved
    # onto its mirror -sigma_2; the gap at k = 2 is the mirror distance
    # 2 sigma_2 = 2^-19, so the guard refuses eps0 = 2^-17 before any rung
    x, e = tmp_path / "x.mtx", tmp_path / "e.mtx"
    sp.write_matrix(x, np.diag([1.0, 2.0**-20]))
    sp.write_matrix(e, np.array([[0.0, 0.0], [0.0, -1.0]]))
    assert run_cli(["verify", "--x", str(x), "--edir", str(e), "--k", "2",
                    "--eps0", "7.62939453125e-06"]) == (
        2, "", "error: eps0 7.62939453125e-06 must stay below 0.1 * spectral "
               "gap (1.907e-07)\n")


def test_verify_gap_too_small_exits_3(tmp_path):
    x, e = tmp_path / "x.mtx", tmp_path / "e.mtx"
    run_cli(["gen", "--n", "4", "--p", "3", "--sv", "3,2.9999999999,1",
             "--seed", "1", "--out", str(x)])
    sp.write_matrix(e, sp.perturbation_direction(4, 3, 2))
    code, _, _ = run_cli(["verify", "--x", str(x), "--edir", str(e)])
    assert code == 3


# ------------------------------------------------------------------ errata

def test_errata_default_confirms_all_five(capfd):
    code, stdout, err = run_cli(["errata"])
    assert code == 0, err
    lines = stdout.splitlines()
    assert lines[0] == "item,formula,defect,evidence,corrected,defective,separation,status"
    assert len(lines) == 6
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5"]
    assert all(line.endswith(",confirmed") for line in lines[1:])
    evidence = [line.split(",")[3] for line in lines[1:]]
    assert evidence == ["order_u", "shape-audit", "order_u", "shape-audit",
                       "order_v"]


def test_errata_output_is_byte_stable():
    a = run_cli(["errata"])
    b = run_cli(["errata"])
    assert a == b


def test_errata_square_case_exits_5():
    code, stdout, err = run_cli(["errata", "--n", "3", "--p", "3"])
    assert code == 5
    lines = stdout.splitlines()
    assert len(lines) == 6
    assert "not applicable (n=p)" in lines[3]
    assert "rerun with n > p" in err
    # the other four defects are still confirmed on the square instance
    others = lines[1:3] + lines[4:]
    assert all(line.endswith(",confirmed") for line in others)


@pytest.mark.parametrize("n, p", [(5, 3), (3, 3)])
def test_errata_rows_follow_the_catalog(n, p):
    code, stdout, _ = run_cli(["errata", "--n", str(n), "--p", str(p)])
    assert code == (0 if n > p else 5)
    rows = [line.split(",") for line in stdout.splitlines()[1:]]
    assert len(rows) == len(sp.CATALOG)
    findings = {f.item: f for f in sp.shape_audit_as_printed(n, p)}
    for row, d in zip(rows, sp.CATALOG):
        assert row[:3] == [str(d.item), d.formula, d.defect]
        if d.variant is None:
            f = findings[d.item]
            assert row[3:6] == ["shape-audit", *f.dims(n, p)]
        else:
            assert row[3] == "order_" + d.metric
    # the dropped complement has no numeric evidence on a square instance
    statuses = [row[-1] for row in rows]
    assert statuses.count("not applicable (n=p)") == (0 if n > p else 1)


def test_errata_unconfirmed_defect_exits_5(monkeypatch):
    # a "defect" that is the corrected form itself cannot separate
    no_defect = sp.Defect(6, "u_tilde", "corrected form", "u",
                          FormulaVariant.CORRECTED)
    monkeypatch.setattr(svdpert.convergence, "CATALOG", (*sp.CATALOG, no_defect))
    code, stdout, err = run_cli(["errata"])
    assert code == 5
    lines = stdout.splitlines()
    assert len(lines) == 7
    assert all(line.endswith(",confirmed") for line in lines[1:6])
    assert lines[6].startswith("6,u_tilde,corrected form,order_u,")
    assert lines[6].endswith(",0,not confirmed")
    assert "not all defects could be confirmed" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_errata_rejects_out_of_range_seed(seed):
    code, stdout, err = run_cli(["errata", "--seed", str(seed)])
    assert (code, stdout) == (2, "")
    assert err == f"error: seed must be an integer in [0, 2^64), got {seed}\n"


@pytest.mark.parametrize("n, p", [(2, 3), (3, 1), (1, 1)])
def test_errata_rejects_bad_dims(n, p):
    # shape_audit_as_printed's InvalidDims is the one dims check
    code, stdout, err = run_cli(["errata", "--n", str(n), "--p", str(p)])
    assert (code, stdout) == (2, "")
    assert "n >= p >= 2" in err


# ------------------------------------------------------------------- misc

def _readme_exit_codes():
    """Error class name -> exit code, from the README's exit-code table."""
    table = re.search(r"\n\| code .*?\n\n", README.read_text("utf-8"), re.S)
    codes = {}
    for line in table.group(0).strip().splitlines()[2:]:
        code, _, raised = (cell.strip() for cell in line.strip("|").split("|"))
        codes.update(dict.fromkeys(re.findall(r"`(\w+)`", raised), int(code)))
    return codes


ERROR_CLASSES = [cls for cls in vars(svdpert.errors).values()
                 if isinstance(cls, type) and issubclass(cls, sp.SvdpertError)
                 and cls is not sp.SvdpertError]
ERROR_ARGS = {sp.GapTooSmall: (2, 1e-9), sp.ParseError: (3, "bad entry")}


def test_readme_exit_code_table_names_every_error_class():
    assert set(_readme_exit_codes()) == {
        cls.__name__ for cls in ERROR_CLASSES} | {"OSError", "ValueError"}


@pytest.mark.parametrize("cls", [*ERROR_CLASSES, OSError, ValueError],
                         ids=lambda cls: cls.__name__)
def test_every_error_exits_with_its_documented_code(monkeypatch, cls):
    # a library error exits with its class's exit_code, any other OSError
    # or ValueError with the README's code for it
    exc = cls(*ERROR_ARGS.get(cls, ("boom",)))

    def fail(*args):
        raise exc

    monkeypatch.setattr(svdpert.cli, "errata_rows", fail)
    code = _readme_exit_codes()[cls.__name__]
    assert getattr(cls, "exit_code", code) == code
    assert run_cli(["errata"]) == (code, "", f"error: {exc}\n")


def test_missing_subcommand_is_usage_error():
    code, _, _ = run_cli([])
    assert code == 2


def test_unknown_variant_is_usage_error(tmp_path):
    x = tmp_path / "x.mtx"
    sp.write_matrix(x, np.diag([3.0, 1.0]))
    code, _, _ = run_cli(
        ["expand", "--x", str(x), "--e", str(x), "--variant", "bogus"]
    )
    assert code == 2


def test_parser_built_once_keeps_calls_apart(tmp_path, monkeypatch):
    # main reuses one parser per process: ladder flags given to one call
    # must not reach the next, whose omitted flags take the library's
    # defaults, and help output must be a freshly built parser's
    x, e = write_benchmark(tmp_path)
    plain = ["verify", "--x", str(x), "--edir", str(e)]
    flagged = [*plain, "--eps0", "0.001", "--factor", "0.6", "--count", "6"]
    helps = [["--help"], ["verify", "--help"], ["errata", "--help"]]
    cached = [run_cli(argv) for argv in (plain, flagged, plain, flagged, *helps)]
    monkeypatch.setattr(svdpert.cli, "build_parser",
                        svdpert.cli.build_parser.__wrapped__)
    fresh = [run_cli(argv) for argv in (plain, flagged, *helps)]
    assert all(code == 0 for code, _, _ in cached)
    assert cached[0] == cached[2] == fresh[0]
    assert cached[1] == cached[3] == fresh[1]
    assert cached[0] != cached[1]
    assert cached[4:] == fresh[2:]


def test_import_builds_no_dataclass():
    # the records are named tuples: importing the CLI after numpy and the
    # standard modules it needs imports no dataclasses module and builds no
    # dataclass, whose generated code would run at every import
    proc = run_child("-c", """
import argparse, enum, sys, typing
import numpy
before = set(sys.modules)
import svdpert.cli
new = set(sys.modules) - before
classes = [c for m in new if m.startswith("svdpert")
           for c in vars(sys.modules[m]).values()
           if isinstance(c, type) and c.__module__.startswith("svdpert")]
assert "dataclasses" not in new, sorted(new)
assert len(classes) > 8
print([c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")])
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
