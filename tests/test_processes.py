"""Process-level checks: two fresh interpreters run one fixed command list
and must print, write and exit alike, byte for byte; each exit code also
reaches the shell through run()'s sys.exit.  The comparisons are run to
run: the children inherit the BLAS kernel and thread count."""

import json

import numpy as np
import pytest

from helpers import beyond_double_range, geometric_spectrum, run_child, run_cli

import svdpert as sp


def command_list(d):
    """(exit code, argv) of every command: gen writes to the working
    directory, the others read their inputs from d."""
    def gen(n, p, sv, seed, out):
        return ["gen", "--n", str(n), "--p", str(p), "--sv", ",".join(map(repr, sv)),
                "--seed", str(seed), "--out", out]

    def cmd(name, x, e, *flags):
        return [name, "--x", str(d / x), "--edir" if name == "verify" else "--e",
                str(d / e), *flags]

    return [
        (0, ["errata"]),
        (0, ["errata", "--n", "20", "--p", "10", "--seed", "3"]),
        # the cold SVD of a steep 200x100 matrix; every row is confirmed
        *((0, ["errata", "--n", "200", "--p", "100", "--seed", s]) for s in "123"),
        (5, ["errata", "--n", "3", "--p", "3"]),
        (2, gen(2, 3, (1, 0.5, 0.2), 0, "n-below-p.mtx")),
        (0, gen(8, 5, (3, 2.2, 1.5, 1, 0.4), 42, "x.mtx")),
        (0, gen(8, 5, (5, 4, 3, 2, 1), 7, "e.mtx")),
        # the repeated singular value 1.5 leaves triplet 2 no gap
        (0, gen(9, 4, (3, 1.5, 1.5, 0.4), 4, "tied.mtx")),
        (0, gen(9, 4, (4, 3, 2, 1), 5, "tied-e.mtx")),
        # svd's batched rounds and the ladder's rung stacks at 20 columns,
        # and at 9, where the rungs end at unequal sweeps
        *((0, gen(n, p, geometric_spectrum(p, ratio=0.7), seed, f"{x}{p}.mtx"))
          for n, p in ((40, 20), (30, 9)) for x, seed in (("x", 11), ("e", 12))),
        # LAPACK's blocked QR, past its 128-column crossover; twelve
        # write_matrix blocks of at most 3,900 entries
        (0, gen(300, 150, geometric_spectrum(150, ratio=0.99), 1, "g.mtx")),
        (0, gen(3000, 3, (40, 2, 1e-7), 5, "t.mtx")),
        (0, cmd("expand", "x.mtx", "e.mtx")),
        (0, cmd("expand", "wide-x.mtx", "wide-e.mtx", "--k", "2")),
        (3, cmd("expand", "tied.mtx", "tied-e.mtx", "--k", "2")),
        (2, cmd("expand", "spectrum-x.mtx", "spectrum-e.mtx")),
        (2, cmd("expand", "f31_norm-x.mtx", "f31_norm-e.mtx")),
        (0, cmd("verify", "x.mtx", "e.mtx", "--out", "verify.csv")),
        (0, cmd("verify", "wide-x.mtx", "wide-e.mtx", "--k", "2", "--factor", "0.3",
                "--count", "6", "--out", "wide.csv")),
        *((0, cmd("verify", "x20.mtx", "e20.mtx", "--k", k, "--out", f"v20-{k}.csv"))
          for k in "12"),
        (0, cmd("verify", "x9.mtx", "e9.mtx", "--k", "1")),
        (0, cmd("verify", "x9.mtx", "e9.mtx", "--k", "3", "--out", "v9-3.csv")),
        # every res_u of the 8x5 pair lies in the noise floor
        (4, cmd("verify", "x.mtx", "e.mtx", "--eps0", "1e-8")),
        (1, cmd("verify", "missing.mtx", "missing.mtx")),
        # the eps0 guard refuses a ladder across sigma_2's mirror
        (2, cmd("verify", "mirror-x.mtx", "mirror-e.mtx", "--k", "2",
                "--eps0", "7.62939453125e-06")),
    ]


CHILD = ("import json, sys; from helpers import run_cli; "
         "json.dump([run_cli(argv) for argv in json.load(sys.stdin)], sys.stdout)")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The command list, and per fresh interpreter each command's (exit
    code, stdout, stderr) and the bytes of every file the commands wrote."""
    d = tmp_path_factory.mktemp("inputs")
    commands = command_list(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        for code, argv in commands:
            if argv[0] == "gen" and code == 0:
                assert run_cli(argv) == (0, "", "")
    pairs = {"wide": [sp.read_matrix(d / f"{s}.mtx").T for s in "xe"],
             "mirror": (np.diag([1.0, 2.0**-20]), np.diag([0.0, -1.0])),
             **{case: beyond_double_range(case) for case in ("spectrum", "f31_norm")}}
    for case, pair in pairs.items():
        for side, a in zip("xe", pair):
            sp.write_matrix(d / f"{case}-{side}.mtx", a)
    argvs = json.dumps([argv for _, argv in commands])
    reports = []
    for _ in range(2):
        cwd = tmp_path_factory.mktemp("child")
        proc = run_child("-W", "error::RuntimeWarning", "-c", CHILD, input=argvs, cwd=cwd)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        reports.append(([tuple(r) for r in json.loads(proc.stdout)],
                        {f.name: f.read_bytes() for f in cwd.iterdir()}))
    return commands, reports


def test_two_fresh_interpreters_print_and_write_the_same_bytes(runs):
    commands, reports = runs
    assert reports[0] == reports[1]
    results = reports[0][0]
    assert [code for code, _, _ in results] == [code for code, _ in commands]
    for (_, argv), (_, stdout, stderr) in zip(commands, results):
        assert "Traceback" not in stderr and "Warning" not in stderr, argv
        if argv[:3] == ["errata", "--n", "200"]:
            rows = stdout.splitlines()[1:]
            assert len(rows) == 5 and all(r.endswith(",confirmed") for r in rows), stdout


@pytest.mark.parametrize("code", range(6))
def test_run_exits_with_the_code_main_returns(runs, tmp_path, code):
    # python -m svdpert calls run(), as the installed script does
    commands, reports = runs
    k = next(k for k, (want, _) in enumerate(commands) if want == code)
    proc = run_child("-m", "svdpert", *commands[k][1], cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == reports[0][0][k]


SVD_CHILD = ("import hashlib, svdpert as sp; "
             "print(*(hashlib.sha256(f.tobytes()).hexdigest() "
             "for f in sp.svd(sp.SplitMix64(7).normal_matrix(300, 150))))")


def test_svd_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    # svd's QRs take matrix-vector products only: under the Haswell to
    # Prescott kernels, matrix products on 300 rows split across two
    # threads sum in another order than on one
    outputs = []
    for threads in "12":
        proc = run_child("-c", SVD_CHILD, cwd=tmp_path, env={"OPENBLAS_NUM_THREADS": threads})
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
