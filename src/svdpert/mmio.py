"""Matrix Market dense-array I/O and the residual-report CSV writer.

Only the dense real general subset is handled:

    %%MatrixMarket matrix array real general
    % optional comments
    <rows> <cols>
    <value>            (one per line, column-major, 17 significant digits)

Files use LF line endings.  17 significant digits round-trip every finite
double bitwise, so read(write(A)) == A exactly.  Each entry is written as
exactly the bytes of ``"%.17g" % x``: a numpy kernel formats the entries
with 1e-6 < |x| < 1e16, and one %-format pass the rest (zeros,
subnormals, |x| <= 1e-6 and |x| >= 1e16) and any input too short to pay
for the kernel.

The report CSV has a header of ``variant`` and ResidualSample's fields,
one data row per ladder sample (epsilon descending), and one footer row
``order_<metric>,<slope>,<r2>`` per fit of the report, in its order.
"""

import functools
import math

import numpy as np

from .convergence import ResidualSample
from .errors import ParseError, UnsupportedFormat
from .linalg import as_matrix

BANNER = "%%MatrixMarket matrix array real general"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# _fmt17 takes the numpy kernel from this many entries it covers on (below,
# one %-format pass is faster); write_matrix formats at most this many at a
# time
_KERNEL_MIN = 256
_CHUNK = 4096

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for doubles


@functools.cache
def _tables():
    """_fmt17's tables, built on its first call: 10^s for s in [0, 22], all
    exact, over its two Veltkamp halves; for q in [0, 10^4), "%04d" % q as
    a little-endian word and its count of trailing zeros; the layout masks.

    _fmt17 builds a row of 32 bytes per entry and drops its NUL bytes: the
    sign at byte 2, "%.17g"'s digits, dot and zeros at bytes 3-24 (j =
    byte - 3), its exponent "e-0N" at bytes 25-28 and end at 29-31.  Its
    source S holds "0000", "000" + N's first digit and N's other digits,
    so Z = "0000" + "%017d" % N is S[3:24].  For each key 17 (E + 6) + k -
    1, k the digits left once trailing zeros are stripped, byte j takes
    Z[j] = S[j + 3] up to the dot (mask keep), the dot (const), Z[j - 1]
    after it (mask shift) and the exponent (const); each mask holds four
    little-endian words per key."""
    pow10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
    hi = _SPLIT * pow10 - (_SPLIT * pow10 - pow10)
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # column q
    quads = np.ascontiguousarray((48 + digits).T).view("<u4")[:, 0]
    trailing = np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0)
    E, k = np.divmod(np.arange(22 * 17), 17)
    E, k = E[:, None] - 6, k[:, None] + 1
    L = np.where(E < -4, 0, E)  # the dot follows Z[4 + L]
    j = np.arange(32) - 3
    keep = (j >= 4 + np.minimum(L, 0)) & (j <= 4 + L)
    shift = (j >= 6 + L) & (j <= np.maximum(4 + k, 5 + L))
    const = 46 * ((j == 5 + L) & (k > L + 1))
    const[:, 25:29] = (E < -4) * np.hstack((np.full((len(E), 3), [101, 45, 48]), 48 - E))
    masks = (t.astype(np.uint8).view("<u8") for t in (255 * keep, 255 * shift, const))
    return np.stack((pow10, hi, pow10 - hi)), quads, trailing, *masks


def _scaled(a, s, pow10):
    """(hi, lo) with hi + lo == a 10^s exactly (Dekker's product)."""
    p, p_hi, p_lo = pow10.take(s, axis=1)
    hi = a * p
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    return hi, a_lo * p_lo - (((hi - a_hi * p_hi) - a_lo * p_hi) - a_hi * p_lo)


def _fmt17(x: np.ndarray, end: bytes) -> bytes:
    """b"%.17g" % v + end for each v of the float64 vector x; an end of
    more than 3 bytes raises ValueError.  For 1e-6 < |v| < 1e16, E =
    floor(log10 |v|) is in [-6, 15], so 10^(16 - E) is exact and N =
    round-half-even(|v| 10^(16 - E)) holds "%.17g"'s 17 digits.  np.log10
    can miss E by one, which the exact product hi + lo, against 1e16 and
    1e17, corrects; then hi is an even integer above 2^53, so N = hi +
    rint(lo).  N stays below 10^17: the largest double below each 10^k, k
    in [-5, 16], lies more than half a unit of N's last digit below it."""
    if len(end) > 3:
        raise ValueError(f"end must be at most 3 bytes, got {len(end)}")
    a = np.abs(x)
    cover = len(x) >= _KERNEL_MIN and (a > 1e-6) & (a < 1e16)
    if np.count_nonzero(cover) < _KERNEL_MIN:
        return ((b"%.17g" + end) * len(x)) % tuple(x.tolist())
    pow10, quads, trailing, keep, shift, const = _tables()
    a = np.where(cover, a, 1.0)
    # log10 may round past -6 just above 1e-6; 16 - E = 0 is in the table
    E = np.maximum(np.floor(np.log10(a)), -6.0).astype(np.int64)
    hi, lo = _scaled(a, 16 - E, pow10)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    if np.any(low | high):
        E += high.astype(np.int64) - low
        hi, lo = _scaled(a, 16 - E, pow10)
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # S, one zero word, then per entry "0000", "000" + N's first digit, its
    # other digits by fours and two NUL words, a column of quads at a time;
    # N's trailing zeros are counted from its top quad down
    S = np.zeros(4 * len(x) + 1, "<u8")
    body = S[1:].view("<u4").reshape(-1, 8)
    body[:, 0] = quads[0]
    top = N // 10**8
    first, bottom = top // 10**8, N - top * 10**8
    top -= first * 10**8
    upper, lower = top // 10**4, bottom // 10**4
    zeros = 0
    for col, q in enumerate((first, upper, top - upper * 10**4,
                             lower, bottom - lower * 10**4), 1):
        quads.take(q, out=body[:, col])
        zeros = np.where(q == 0, zeros + 4, trailing.take(q))
    key = 17 * (E + 6) + 16 - zeros
    word = S[1:]
    rows = (word & keep.take(key, axis=0).ravel()
            | (word << 8 | S[:-1] >> 56) & shift.take(key, axis=0).ravel()
            | const.take(key, axis=0).ravel()).reshape(-1, 4)
    rows[:, 0] |= (x < 0.0) * np.uint64(45 << 16)
    rows[:, 3] |= int.from_bytes(end.rjust(3, b"\0"), "little") << 40
    out = rows.view(np.uint8)
    rest = np.flatnonzero(~cover)
    if len(rest):
        text = np.frombuffer((b"%-29.17g" * len(rest)) % tuple(x[rest].tolist()), np.uint8)
        out[rest, :29] = (text * (text != 32)).reshape(-1, 29)
    return out.tobytes().translate(None, b"\0")


def _fmt_each(values, end: str) -> str:
    """Each float of values as _fmt formats it, followed by end."""
    return _fmt17(np.asarray(values, dtype=float), end.encode("ascii")).decode("ascii")


def write_matrix(path, a) -> None:
    """Write a dense real matrix: banner, dimensions line, then the entries
    column-major (no comment lines; read_matrix skips any it finds)."""
    m = as_matrix(a, "matrix")
    rows, cols = m.shape
    # blocks of whole columns, or of one column's pieces, of at most _CHUNK
    # entries each, so that no layout of m is copied whole
    width = max(1, _CHUNK // rows)
    with open(path, "wb") as fh:
        fh.write(f"{BANNER}\n{rows} {cols}\n".encode("ascii"))
        for j in range(0, cols, width):
            for i in range(0, rows, _CHUNK):
                block = m[i:i + _CHUNK, j:j + width]
                fh.write(_fmt17(block.ravel(order="F"), b"\n"))


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
    block = lines[pos:pos + need]
    values = None
    # one float pass over a full block (its length is checked before need
    # sizes an array); the line walk below names a fault, and reads the
    # lines only str.strip fixes, as float keeps the separators \x1c-\x1f
    if len(block) == need and "_" not in raw:
        try:
            values = np.fromiter(map(float, block), float, need)
        except ValueError:
            pass
    if values is None or not np.isfinite(values).all():
        values = []
        # float() refuses blank and multi-token lines; split names the fault
        for lineno, line in enumerate(block, pos + 1):
            text = line.strip()
            try:
                if "_" in text:
                    raise ValueError(text)
                v = float(text)
                if math.isfinite(v):
                    values.append(v)
                    continue
                reason = f"non-finite entry: {text!r}"
            except ValueError:
                reason = f"not a real number: {text!r}"
            if len(text.split()) != 1:
                reason = "expected exactly one matrix entry"
            raise ParseError(lineno, reason)
        if len(values) < need:
            raise ParseError(pos + len(values) + 1,
                             f"expected {need} entries, file ends after {len(values)}")
    for extra in range(pos + need, len(lines)):
        if lines[extra].strip():
            raise ParseError(extra + 1, "unexpected content after matrix entries")
    return np.asarray(values).reshape((rows, cols), order="F")


def write_report_csv(path, report) -> None:
    """Write a convergence report (see module docstring for the schema)."""
    lines = [",".join(("variant", *ResidualSample._fields))]
    lines += (",".join((report.variant.value, *map(_fmt, s))) for s in report.samples)
    lines += (f"order_{f.metric},{_fmt(f.order)},{_fmt(f.r2)}" for f in report.fits)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
