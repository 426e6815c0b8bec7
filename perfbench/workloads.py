"""The four benchmark workloads: their seeded inputs, argv and oracles.

Every op is one ``svdpert.cli.main(argv)`` call.  A workload turns the
workload seed into a fixed pool of cases during set-up, using only the
library's pinned generator and writer (``SplitMix64``,
``matrix_with_spectrum``, ``perturbation_direction``, ``write_matrix``), so
the same seed gives the same files.  The run cycles through the pool, so
every case repeats and its repeats can be compared byte for byte.

Each ``check`` is the benchmark's own oracle for the first occurrence of a
case.  It raises ``CheckFailed`` on a wrong answer and otherwise returns
the op's error against its reference (``result_err``).
"""

import os
from dataclasses import dataclass, field

import numpy as np

MASK64 = (1 << 64) - 1


class CheckFailed(Exception):
    """An op's output is wrong, missing or not reproducible."""


@dataclass
class Case:
    """One input of the pool: the argv of its op and the file the op writes."""

    argv: list
    out_path: str = None
    oracle: dict = field(default_factory=dict)


def errata_spectrum(p):
    """The spectrum ``3 * 0.7^j`` that the ``errata`` command uses too."""
    return tuple(3.0 * 0.7**j for j in range(p))


def parse_kv(stdout):
    """``key: value`` lines of the CLI's output, as a dict of strings."""
    block = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            block[key] = val
    return block


def _number(block, key):
    try:
        return float(block[key])
    except (KeyError, ValueError):
        raise CheckFailed(f"output has no numeric {key!r}")


def _vector(block, key):
    try:
        return np.array([float(t) for t in block[key].split()])
    except (KeyError, ValueError):
        raise CheckFailed(f"output has no numeric vector {key!r}")


def _require_exit_ok(code, stderr):
    if code != 0:
        raise CheckFailed(f"exit {code}: {stderr.strip()[:200]}")


class Workload:
    """Base: subclasses define ``name``, ``why``, ``make_cases`` and
    ``check``, and may pick the reference computation (reference.py) whose
    resource use matches their ops."""

    name = ""
    why = ""
    reference = "compute"

    def make_cases(self, sp, workdir, seed):
        raise NotImplementedError

    def check(self, case, code, stdout, stderr, out_bytes):
        raise NotImplementedError


class VerifyWorkload(Workload):
    name = "verify-40x20"
    why = (
        "Each op makes 17 Jacobi SVDs of which 9 have distinct inputs, and "
        "the SVD is ~97% of the op: shared and warm-started rung "
        "decompositions (ROADMAP 4) and a faster kernel (ROADMAP 5) show here."
    )
    n, p, count, pool = 40, 20, 8, 8

    def make_cases(self, sp, workdir, seed):
        stream = sp.SplitMix64(seed & MASK64)
        spectrum = errata_spectrum(self.p)
        cases = []
        for i in range(self.pool):
            spec = sp.SpectrumSpec(self.n, self.p, spectrum, stream.next_u64())
            x_path = os.path.join(workdir, f"x{i}.mtx")
            e_path = os.path.join(workdir, f"e{i}.mtx")
            sp.write_matrix(x_path, sp.matrix_with_spectrum(spec))
            sp.write_matrix(
                e_path, sp.perturbation_direction(self.n, self.p, stream.next_u64())
            )
            csv = os.path.join(workdir, f"report{i}.csv")
            k = 1 + i % 2
            argv = ["verify", "--x", x_path, "--edir", e_path, "--k", str(k),
                    "--count", str(self.count), "--out", csv]
            cases.append(Case(argv=argv, out_path=csv))
        return cases

    def check(self, case, code, stdout, stderr, out_bytes):
        _require_exit_ok(code, stderr)
        block = parse_kv(stdout)
        orders = [_number(block, f"order_{m}") for m in ("u", "v", "sigma")]
        r2 = [_number(block, f"r2_{m}") for m in ("u", "v", "sigma")]
        if not all(1.9 <= q <= 2.1 for q in orders):
            raise CheckFailed(f"fitted orders {orders} outside [1.9, 2.1]")
        if min(r2) < 0.99:
            raise CheckFailed(f"min r2 {min(r2)} below 0.99")
        lines = out_bytes.decode("ascii").splitlines()
        footers = [line.split(",", 1)[0] for line in lines[-3:]]
        if (
            len(lines) != self.count + 4
            or lines[0] != "variant,epsilon,res_u,res_v,res_sigma"
            or footers != ["order_u", "order_v", "order_sigma"]
        ):
            raise CheckFailed(f"CSV report has the wrong layout ({len(lines)} lines)")
        return max(abs(q - 2.0) for q in orders)


class ExpandWorkload(Workload):
    name = "expand-tall"
    why = (
        "One SVD per op whose time is nearly all the n x n basis completion, "
        "plus MatrixMarket reads and ~83 KB of output: a thin SVD (ROADMAP 3) "
        "shows here, ROADMAP 4 and 5 should not move it."
    )
    n, p, scale, pairs = 600, 4, 1e-3, 2
    reference = "memory"

    def make_cases(self, sp, workdir, seed):
        stream = sp.SplitMix64(seed & MASK64)
        spectrum = errata_spectrum(self.p)
        cases = []
        for j in range(self.pairs):
            spec = sp.SpectrumSpec(self.n, self.p, spectrum, stream.next_u64())
            X = sp.matrix_with_spectrum(spec)
            E = self.scale * sp.perturbation_direction(
                self.n, self.p, stream.next_u64()
            )
            for tag, x, e in (("tall", X, E), ("wide", X.T, E.T)):
                x_path = os.path.join(workdir, f"x{j}{tag}.mtx")
                e_path = os.path.join(workdir, f"e{j}{tag}.mtx")
                sp.write_matrix(x_path, x)
                sp.write_matrix(e_path, e)
                cases.append(Case(
                    argv=["expand", "--x", x_path, "--e", e_path],
                    oracle={"X": x, "E": e},
                ))
        return cases

    @staticmethod
    def oracle(X, E):
        """Corrected first-order triplet k=1 from LAPACK's SVD and the closed
        forms, with the basis-free complement term
        ``U3 g3 = (I - Up Up^T) E v1 / sigma1``."""
        swapped = X.shape[0] < X.shape[1]
        if swapped:
            X, E = X.T, E.T
        U, S, Vt = np.linalg.svd(X, full_matrices=False)
        u1, v1, s1 = U[:, 0], Vt[0], S[0]
        U2, V2, S2 = U[:, 1:], Vt[1:].T, S[1:]
        Ev1 = E @ v1
        f21 = U2.T @ Ev1
        f12 = V2.T @ (E.T @ u1)
        denom = s1**2 - S2**2
        g2 = (s1 * f21 + S2 * f12) / denom
        h2 = (s1 * f12 + S2 * f21) / denom
        complement = (Ev1 - U @ (U.T @ Ev1)) / s1
        u = u1 + U2 @ g2 + complement
        v = v1 + V2 @ h2
        sigma = s1 + float(u1 @ Ev1)
        return (sigma, v, u) if swapped else (sigma, u, v)

    def check(self, case, code, stdout, stderr, out_bytes):
        _require_exit_ok(code, stderr)
        block = parse_kv(stdout)
        sigma = _number(block, "sigma_tilde")
        u = _vector(block, "u_tilde")
        v = _vector(block, "v_tilde")
        sigma_o, u_o, v_o = self.oracle(case.oracle["X"], case.oracle["E"])
        if u.shape != u_o.shape or v.shape != v_o.shape:
            raise CheckFailed(f"vector lengths {u.shape}, {v.shape} are wrong")
        # (u~, v~) is defined up to one joint sign; align the oracle to v~.
        if float(v @ v_o) < 0.0:
            u_o, v_o = -u_o, -v_o
        err = max(
            abs(sigma - sigma_o) / abs(sigma_o),
            float(np.linalg.norm(u - u_o) / np.linalg.norm(u_o)),
            float(np.linalg.norm(v - v_o) / np.linalg.norm(v_o)),
        )
        if not err <= 1e-10:
            raise CheckFailed(f"expansion deviates from the oracle by {err:.3e}")
        return err


class ErrataWorkload(Workload):
    name = "errata-5x3"
    why = (
        "51 SVDs per op of which 9 have distinct inputs, on 5x3 matrices: "
        "per-call overhead and redundant decompositions dominate, so ROADMAP 4 "
        "shows large and added per-call kernel set-up shows as a regression."
    )
    pool = 32
    # catalog items evidenced by fitted orders: corrected 2, defective 1
    order_items = ("1", "3", "5")

    def make_cases(self, sp, workdir, seed):
        stream = sp.SplitMix64(seed & MASK64)
        return [
            Case(argv=["errata", "--seed", str(stream.next_u64())])
            for _ in range(self.pool)
        ]

    def check(self, case, code, stdout, stderr, out_bytes):
        _require_exit_ok(code, stderr)
        rows = stdout.splitlines()[1:]
        if len(rows) != 5:
            raise CheckFailed(f"expected 5 catalog rows, got {len(rows)}")
        err = 0.0
        for row in rows:
            fields = row.split(",")
            if fields[-1] != "confirmed":
                raise CheckFailed(f"item {fields[0]} is {fields[-1]!r}")
            if fields[0] in self.order_items:
                err = max(err, abs(float(fields[4]) - 2.0), abs(float(fields[5]) - 1.0))
        return err


class GenWorkload(Workload):
    name = "gen-300x150"
    why = (
        "67.5k Box-Muller normals in Python, two Householder QRs and a ~1 MB "
        "MatrixMarket write per op: the only workload that loads randmat, "
        "qr_orthonormal and mmio.write_matrix."
    )
    n, p, pool = 300, 150, 8
    header = "%%MatrixMarket matrix array real general"

    def make_cases(self, sp, workdir, seed):
        stream = sp.SplitMix64(seed & MASK64)
        sv = ",".join(repr(3.0 * 0.99**j) for j in range(self.p))
        cases = []
        for i in range(self.pool):
            out = os.path.join(workdir, f"gen{i}.mtx")
            argv = ["gen", "--n", str(self.n), "--p", str(self.p), "--sv", sv,
                    "--seed", str(stream.next_u64()), "--out", out]
            cases.append(Case(argv=argv, out_path=out))
        return cases

    def check(self, case, code, stdout, stderr, out_bytes):
        _require_exit_ok(code, stderr)
        lines = out_bytes.decode("ascii").split("\n")
        if lines[0] != self.header or lines[1] != f"{self.n} {self.p}":
            raise CheckFailed("written file has the wrong header")
        body = lines[2:-1]
        if len(body) != self.n * self.p or lines[-1] != "":
            raise CheckFailed(f"written file holds {len(body)} entries")
        A = np.array([float(t) for t in body]).reshape((self.n, self.p), order="F")
        sv = np.array([float(t) for t in case.argv[case.argv.index("--sv") + 1].split(",")])
        err = float(np.max(np.abs(np.linalg.svd(A, compute_uv=False) - sv) / sv))
        if not err <= 1e-12:
            raise CheckFailed(f"singular values deviate from --sv by {err:.3e}")
        return err


WORKLOADS = {w.name: w for w in (
    VerifyWorkload(), ExpandWorkload(), ErrataWorkload(), GenWorkload()
)}
