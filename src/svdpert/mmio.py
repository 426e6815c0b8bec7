"""Matrix Market dense-array I/O and the residual-report CSV writer.

Only the dense real general subset is handled:

    %%MatrixMarket matrix array real general
    % optional comments
    <rows> <cols>
    <value>            (one per line, column-major, 17 significant digits)

Files use LF line endings.  17 significant digits round-trip every finite
double bitwise, so read(write(A)) == A exactly.

The report CSV has header ``variant,epsilon,res_u,res_v,res_sigma``, one
data row per ladder sample (epsilon descending), and three footer rows
``order_u,<slope>,<r2>`` / ``order_v,...`` / ``order_sigma,...``.
"""

import math

import numpy as np

from .errors import ParseError, UnsupportedFormat
from .linalg import as_matrix

BANNER = "%%MatrixMarket matrix array real general"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_matrix(path, a) -> None:
    """Write a dense real matrix: banner, dimensions line, then the entries
    column-major (no comment lines; read_matrix skips any it finds)."""
    m = as_matrix(a, "matrix")
    values = m.flatten(order="F").tolist()
    # one %-format pass; "%.17g" formats a float exactly as _fmt does
    body = ("%.17g\n" * len(values)) % tuple(values)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{BANNER}\n{m.shape[0]} {m.shape[1]}\n")
        fh.write(body)


def read_matrix(path) -> np.ndarray:
    """Read a dense real general Matrix Market file (strict inverse of
    write_matrix; line numbers in errors are 1-based)."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "empty file")

    tokens = lines[0].split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
        raise ParseError(1, "malformed MatrixMarket banner")
    obj, fmt, field, symmetry = (t.lower() for t in tokens[1:])
    if obj != "matrix":
        raise UnsupportedFormat(f"unsupported object {obj!r}")
    if fmt != "array":
        raise UnsupportedFormat(f"unsupported format {fmt!r} (need dense array)")
    if field != "real":
        raise UnsupportedFormat(f"unsupported field {field!r}")
    if symmetry != "general":
        raise UnsupportedFormat(f"unsupported symmetry {symmetry!r}")

    pos = 1
    while pos < len(lines) and lines[pos].startswith("%"):
        pos += 1
    if pos >= len(lines):
        raise ParseError(len(lines) + 1, "missing dimensions line")
    dims = lines[pos].split()
    # int() and float() also read Python's digit separators, as in 1_5;
    # MatrixMarket has none
    if len(dims) != 2 or "_" in lines[pos]:
        raise ParseError(pos + 1, "dimensions line must hold two integers")
    try:
        rows, cols = int(dims[0]), int(dims[1])
    except ValueError:
        raise ParseError(pos + 1, "dimensions line must hold two integers")
    if rows < 1 or cols < 1:
        raise ParseError(pos + 1, f"dimensions must be positive, got {rows} {cols}")
    pos += 1

    need = rows * cols
    values = []
    for i in range(need):
        lineno = pos + i + 1
        if pos + i >= len(lines):
            raise ParseError(
                lineno, f"expected {need} entries, file ends after {i}"
            )
        text = lines[pos + i].strip()
        if not text or len(text.split()) != 1:
            raise ParseError(lineno, "expected exactly one matrix entry")
        try:
            if "_" in text:
                raise ValueError(text)
            v = float(text)
        except ValueError:
            raise ParseError(lineno, f"not a real number: {text!r}")
        if not math.isfinite(v):
            raise ParseError(lineno, f"non-finite entry: {text!r}")
        values.append(v)
    for extra in range(pos + need, len(lines)):
        if lines[extra].strip():
            raise ParseError(extra + 1, "unexpected content after matrix entries")
    return np.array(values).reshape((rows, cols), order="F")


def write_report_csv(path, report) -> None:
    """Write a convergence report (see module docstring for the schema)."""
    lines = ["variant,epsilon,res_u,res_v,res_sigma"]
    for s in report.samples:
        lines.append(
            f"{report.variant.value},{_fmt(s.epsilon)},{_fmt(s.res_u)},"
            f"{_fmt(s.res_v)},{_fmt(s.res_sigma)}"
        )
    lines.append(f"order_u,{_fmt(report.order_u)},{_fmt(report.r2_u)}")
    lines.append(f"order_v,{_fmt(report.order_v)},{_fmt(report.r2_v)}")
    lines.append(f"order_sigma,{_fmt(report.order_sigma)},{_fmt(report.r2_sigma)}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
