"""Benchmark of the svdpert command line, one workload per process.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op is one in-process ``svdpert.cli.main(argv)`` call with stdout and
stderr captured, run as a single-client closed loop: the next op starts
when the previous one returns.  The process runs one thread, and
BLAS/OpenMP pools are pinned to one thread before numpy is imported.
svdpert is imported from ``src/`` of the checkout; without it the run
fails before printing a result.

``--trace 0`` measures the end-to-end metrics, timing each op against a
fixed reference computation run just before and after it (see
reference.py).  ``--trace 1`` alternates plain and traced ops on the same
cases and reports the per-layer metrics (see tracing.py).  Either way the
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it and
``perfbench/_work/<workload>-seed<N>-trace<T>/record.json`` record the
environment and how each figure was taken.
"""

import os

PINNED_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import REFERENCES, compute_seconds  # noqa: E402
from tracing import NAME, NOTE, Tracer, input_key, min_sweeps, op_layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# set-up is repeated and its median reported, as one set-up is noisy
SETUP_REPEATS = 9
# a tail percentile needs at least this many ops beyond it
TAIL_BEYOND = 10
# distinct SVD inputs whose sweep counts the traced run measures
SWEEP_SAMPLE = 12

# the compute reference's time on a quiet core of the 2-core host the
# benchmark was built on.  setup_s must be reported in seconds; it is the
# set-up's time in ref converted at this fixed speed, so it does not move
# with the host's speed (the wall seconds are kept in the record)
REFERENCE_NOMINAL_S = 0.004


def import_svdpert():
    """Import svdpert and its CLI afresh from ``src/``; returns the package.

    Earlier imports are dropped from ``sys.modules`` first, so every call
    runs svdpert's module code again.
    """
    for name in [m for m in sys.modules if m == "svdpert" or m.startswith("svdpert.")]:
        del sys.modules[name]
    sp = importlib.import_module("svdpert")
    importlib.import_module("svdpert.cli")
    return sp


class Runner:
    """Runs ops, checks each one and counts failures.

    The first occurrence of a case goes through the workload's oracle; a
    repeat must reproduce its stdout and output file byte for byte.
    """

    def __init__(self, cli, workload, cases):
        self.cli, self.workload, self.cases = cli, workload, cases
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.stdout_bytes = 0

    def run(self, index, tracer=None):
        """One op on case ``index``; returns its wall time in seconds."""
        case = self.cases[index]
        if case.out_path and os.path.exists(case.out_path):
            os.remove(case.out_path)
        out, err = io.StringIO(), io.StringIO()
        code, crash = None, None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(case.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that crashes is a failed op, not a failed run
            crash = traceback.format_exc(limit=4)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        stdout = out.getvalue()
        self.stdout_bytes = len(stdout.encode())
        self.attempted += 1
        try:
            if crash:
                raise CheckFailed(crash)
            out_bytes = b""
            if case.out_path:
                if not os.path.exists(case.out_path):
                    raise CheckFailed(f"exit {code}: no output file written")
                out_bytes = Path(case.out_path).read_bytes()
            digest = (hashlib.sha256(stdout.encode()).digest(),
                      hashlib.sha256(out_bytes).digest())
            if index in self.first:
                if digest != self.first[index][0]:
                    raise CheckFailed("output bytes differ from the case's first run")
            else:
                result_err = self.workload.check(
                    case, code, stdout, err.getvalue(), out_bytes
                )
                self.first[index] = (digest, result_err)
        except (CheckFailed, ValueError, IndexError) as exc:  # unparsable output fails
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"case {index}: {exc}")
        return wall


def setup(workload, inputs, seed, repeats):
    """Set up ``repeats`` times; returns (the path svdpert was imported
    from, the cases, each set-up's wall time, each set-up's time in ref).

    One set-up is the svdpert import plus input generation and file writes;
    the oracles run later, on each case's first op.  Like an op, each
    set-up is bracketed by runs of the compute reference: it is generation
    and module code.  The set-ups run in a forked child, so that their
    memory peaks stay out of the ``ru_maxrss`` that ``peak_rss_mb`` reads.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: set up, send the result back, exit at once
        os.close(read_end)
        try:
            walls, in_refs = [], []
            after = compute_seconds()
            for _ in range(repeats):
                before = after
                start = time.perf_counter()
                sp = import_svdpert()
                cases = workload.make_cases(sp, str(inputs), seed)
                walls.append(time.perf_counter() - start)
                after = compute_seconds()
                in_refs.append(walls[-1] / ((before + after) / 2))
            payload = (None, (sp.__file__, cases, walls, in_refs))
        except BaseException:
            payload = (traceback.format_exc(limit=4), None)
        try:
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(payload, pipe)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        error, result = pickle.load(pipe)
    os.waitpid(pid, 0)
    if error:
        raise RuntimeError(f"set-up failed:\n{error}")
    return result


def tail(latencies):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND ops beyond it; the maximum if there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def result_errors(runner):
    """Median and maximum of the ops' errors against their oracles, over
    the distinct cases run (repeats reproduce their first run's bytes)."""
    errors = [err for _, err in runner.first.values()]
    return {
        "result_err_cases": len(errors),
        "result_err": statistics.median(errors) if errors else None,
        "result_err_max": max(errors) if errors else None,
    }


def measure_end_to_end(runner, seconds):
    """Closed loop over the cases for ``seconds``; every op is bracketed by
    runs of the workload's reference computation (see reference.py).

    The bounded latency figures are in units of the reference's time
    around each op, so that the host's speed swings cancel; the same
    figures in seconds are kept in the record.
    """
    reference = REFERENCES[runner.workload.reference]
    runner.run(0)  # warm-up: checked, not timed
    reference()
    latencies, refs = [], [reference()]
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        latencies.append(runner.run((len(latencies) + 1) % len(runner.cases)))
        refs.append(reference())
    in_refs = [wall / ((before + after) / 2)
               for wall, before, after in zip(latencies, refs, refs[1:])]
    tail_ref, tail_pct = tail(in_refs)
    tail_s, _ = tail(latencies)
    metrics = {
        "latency_p50_ref": statistics.median(in_refs),
        "latency_tail_ref": tail_ref,
        "throughput_ops_ref": len(in_refs) / sum(in_refs),
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "timed_ops": len(latencies),
        "latency_tail_percentile": tail_pct,
        "reference": runner.workload.reference,
        "reference_p50_s": statistics.median(refs),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "throughput_ops_s": len(latencies) / sum(latencies),
        **result_errors(runner),
    }
    return metrics, notes


def measure_per_layer(sp, runner, seconds, tracer):
    """Closed loop of pairs: a plain op, then a traced op on the same case.

    Figures are medians over the traced ops; the overhead ratio is the
    median over pairs of traced / plain wall time, as the two ops of a pair
    run back to back on the same host state.
    """
    runner.run(0)  # warm-up: checked, not timed
    per_op, overheads = [], []
    deadline = time.perf_counter() + seconds
    while not per_op or time.perf_counter() < deadline:
        index = len(per_op) % len(runner.cases)
        plain = runner.run(index)
        tracer.op = len(per_op)
        first = len(tracer.spans)
        overheads.append(runner.run(index, tracer) / plain)
        layer = op_layer_metrics(tracer.spans, first, len(tracer.spans))
        layer["cli.stdout_bytes"] = runner.stdout_bytes
        per_op.append(layer)
    metrics = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    errors = result_errors(runner)
    metrics["cli.result_err"] = errors["result_err"]

    svd_inputs = {}
    for span in tracer.spans:
        if span[NAME] == "linalg.svd" and len(svd_inputs) < SWEEP_SAMPLE:
            svd_inputs.setdefault(input_key(span[NOTE]["input"]), span[NOTE]["input"])
    sweeps = [
        min_sweeps(sp.linalg.svd, sp.ConvergenceFailure, x, sp.linalg.JACOBI_SWEEP_LIMIT)
        for x in svd_inputs.values()
    ]
    sweeps = [s for s in sweeps if s is not None]
    metrics["linalg.svd.sweeps"] = statistics.mean(sweeps) if sweeps else 0.0
    notes = {"traced_ops": len(per_op), "sweep_inputs": len(sweeps), **errors}
    return metrics, notes


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "svdpert" / "__init__.py").is_file():
        print(f"error: no svdpert sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    origin = time.perf_counter()
    try:
        setup_file, cases, setup_walls, setup_refs = setup(
            workload, inputs, args.seed, 1 if args.trace else SETUP_REPEATS
        )
        sp = import_svdpert()
        for imported in (setup_file, sp.__file__):
            if Path(imported).resolve().parent != SRC / "svdpert":
                print(f"error: imported svdpert from {imported}", file=sys.stderr)
                return 2
        runner = Runner(sp.cli, workload, cases)
        if args.trace:
            tracer = Tracer(sp.__name__)
            metrics, notes = measure_per_layer(sp, runner, args.seconds, tracer)
            tracer.write(workdir / "spans.jsonl", origin)
            wanted = spec["per_layer"]
        else:
            metrics, notes = measure_end_to_end(runner, args.seconds)
            metrics["setup_s"] = statistics.median(setup_refs) * REFERENCE_NOMINAL_S
            notes["setup_wall_s"] = setup_walls
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    record = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(args.seed),
        "cases": len(cases),
        "notes": notes,
        "failures": runner.failures,
    }
    for failure in runner.failures:
        print(f"failed: {failure}")
    print("record: " + json.dumps(record))
    if args.trace:
        record["patched_bindings"] = tracer.bindings()
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
