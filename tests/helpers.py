"""Shared builders for the test suite."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import svdpert as sp

TESTS = Path(__file__).resolve().parent


def geometric_spectrum(p, top=3.0, ratio=0.65):
    """Descending spectrum with a wide leading gap ((1-ratio) relative)."""
    return tuple(top * ratio**j for j in range(p))


def make_instance(n, p, seed, ratio=0.65):
    """Seeded (X, E_dir) pair with a well-separated spectrum."""
    spec = sp.SpectrumSpec(
        n=n, p=p, singular_values=geometric_spectrum(p, ratio=ratio), seed=seed
    )
    X = sp.matrix_with_spectrum(spec)
    E = sp.perturbation_direction(n, p, (seed + 500) % 2**64)
    return X, E


def run_cli(argv):
    """Run the CLI in process; returns (exit_code, stdout, stderr)."""
    from svdpert.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code if exc.code is not None else 0
    return code, out.getvalue(), err.getvalue()


def run_child(*args, env=None, **kwargs):
    """subprocess.run of a fresh interpreter with args, importing svdpert
    from this checkout's src/, installed or not, and these helpers; env
    holds variables set over this process's own."""
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env=env, **kwargs)


def beyond_double_range(case):
    """(X, E) for which expand's largest singular value of X, its sigma~,
    its coefficients or the norm of its f31 lies beyond the double range,
    every entry finite."""
    seed = {"spectrum": 10, "sigma_tilde": 0}.get(case)
    if seed is not None:  # sigma1, or sigma1 and theta1 (both 1.785e308)
        x = np.ldexp(sp.SplitMix64(seed).normal_matrix(5, 3), 1022)
        return x, x
    if case == "coefficients":
        return np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]), np.full((3, 2), 1e308)
    x, e = np.zeros((4, 2)), np.zeros((4, 2))
    x[0, 0], x[1, 1], e[2:, 0] = 2.0, 1.0, 1.7e308
    return x, e


def parse_kv(stdout):
    """Parse a key:value output block into a dict of strings."""
    block = {}
    for line in stdout.splitlines():
        if ": " in line:
            key, val = line.split(": ", 1)
            block[key] = val
        elif line.endswith(":"):
            block[line[:-1]] = ""
    return block
