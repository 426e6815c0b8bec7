"""Outside-in tracing of the svdpert layers, from the benchmark's files only.

``Tracer`` wraps each public function named in ``TRACED`` in every
``svdpert.*`` module namespace that binds it, so calls between modules are
seen as well as calls from the CLI.  No library source is changed, and the
originals are put back by ``uninstall``.

Each call becomes one span ``[name, start, end, parent, op, note]`` kept in
memory; ``parent`` is the index of the enclosing span (-1 at the top) and
``op`` the id of the op that caused it.  ``note`` holds per-call data the
per-layer metrics need, taken from the arguments or the result after the
clock has stopped.
"""

import functools
import hashlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "linalg": ("svd", "qr_orthonormal"),
    "randmat": ("matrix_with_spectrum", "perturbation_direction"),
    "perturbation": ("partition_svd", "compute_projections",
                     "variant_coefficients", "expand_triplet",
                     "shape_audit_as_printed"),
    "convergence": ("residuals_at", "fit_report", "convergence_ladder"),
    "mmio": ("read_matrix", "write_matrix", "write_report_csv"),
    "cli": ("main",),
}

NAME, START, END, PARENT, OP, NOTE = range(6)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _svd_note(args, kwargs, result):
    x = np.array(_arg(args, kwargs, 0, "x"), dtype=float)
    return {"input": x, "u_cells": int(result.U.size)}


def _path_note(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _spectrum_note(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return {"normals": spec.n * spec.p + spec.p * spec.p}


def _direction_note(args, kwargs, result):
    return {"normals": int(_arg(args, kwargs, 0, "n")) * int(_arg(args, kwargs, 1, "p"))}


NOTES = {
    "linalg.svd": _svd_note,
    "mmio.read_matrix": _path_note,
    "mmio.write_matrix": _path_note,
    "randmat.matrix_with_spectrum": _spectrum_note,
    "randmat.perturbation_direction": _direction_note,
}


class Tracer:
    """Span recorder for one process; ``op`` is set by the caller."""

    def __init__(self, package_name):
        self.spans = []
        self.op = -1
        self._stack = []
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"{package_name}.{module}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[fn] = self._wrap(f"{module}.{name}", fn)
        self._patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == package_name or mod_name.startswith(package_name + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._patches.append((mod, attr, value, wrappers[value]))

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[START] = start
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def bindings(self):
        """``module.attr`` names that the tracer patches."""
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._patches)

    def write(self, path, origin):
        """Write the spans as JSON lines, times relative to ``origin``."""
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START] - origin,
                    "end": s[END] - origin, "parent": s[PARENT], "op": s[OP],
                }) + "\n")


def self_times(spans, first, last):
    """Per-name (calls, self seconds) over spans[first:last].

    Self time is span time minus the time its child spans cover.  The
    benchmark runs one thread, so the children of a span never overlap and
    their durations add up to the covered time.
    """
    child = defaultdict(float)
    for s in spans[first:last]:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls = defaultdict(int)
    own = defaultdict(float)
    for i in range(first, last):
        s = spans[i]
        calls[s[NAME]] += 1
        own[s[NAME]] += (s[END] - s[START]) - child[i]
    return calls, own


def input_key(array):
    return hashlib.sha256(repr(array.shape).encode() + array.tobytes()).hexdigest()


def op_layer_metrics(spans, first, last):
    """Per-layer metrics of one traced op whose spans are spans[first:last]."""
    calls, own = self_times(spans, first, last)
    m = {}
    for module, names in TRACED.items():
        for name in names:
            full = f"{module}.{name}"
            m[f"{full}.calls"] = calls[full]
            m[f"{full}.self_s"] = own[full]
    notes = defaultdict(list)
    for s in spans[first:last]:
        if s[NOTE] is not None:
            notes[s[NAME]].append(s[NOTE])
    svd = notes["linalg.svd"]
    distinct = {input_key(n["input"]) for n in svd}
    m["linalg.svd.distinct_ratio"] = len(distinct) / len(svd) if svd else 0.0
    m["linalg.svd.u_cells"] = sum(n["u_cells"] for n in svd)
    m["randmat.normals"] = sum(
        n["normals"] for name in ("randmat.matrix_with_spectrum",
                                  "randmat.perturbation_direction")
        for n in notes[name]
    )
    for name in ("mmio.read_matrix", "mmio.write_matrix"):
        m[f"{name}.bytes"] = sum(n["bytes"] for n in notes[name])
    return m


def min_sweeps(svd, convergence_failure, x, limit):
    """Smallest ``max_sweeps`` with which ``svd(x)`` converges, or None if
    it does not converge within ``limit`` sweeps."""
    for budget in range(1, limit + 1):
        try:
            svd(x, max_sweeps=budget)
        except convergence_failure:
            continue
        return budget
    return None
