"""File format tests: dense MatrixMarket subset and the report CSV.

Round-trip fidelity is the core contract: 17 significant digits preserve
every finite double bitwise, including signed zeros and subnormals.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svdpert as sp
from svdpert import FormulaVariant
from svdpert.cli import _fmt_vec
from svdpert.errors import ParseError, UnsupportedFormat
from svdpert.mmio import _CHUNK as CHUNK
from svdpert.mmio import _KERNEL_MIN as KERNEL_MIN
from svdpert.mmio import BANNER, _fmt, _fmt_each


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# ------------------------------------------------------------ matrix files

def test_round_trip_bitwise_seeded(tmp_path):
    a = sp.SplitMix64(123).normal_matrix(5, 3)
    f = tmp_path / "a.mtx"
    sp.write_matrix(f, a)
    b = sp.read_matrix(f)
    assert a.tobytes() == b.tobytes()


def test_round_trip_special_values(tmp_path):
    a = np.array([[0.1, -0.0], [5e-324, -1e300], [1e-300, 3.0]])
    f = tmp_path / "special.mtx"
    sp.write_matrix(f, a)
    b = sp.read_matrix(f)
    assert a.tobytes() == b.tobytes()
    # the signed zero really survived
    assert np.signbit(b[0, 1])


def test_written_layout_is_column_major_lf(tmp_path):
    f = tmp_path / "layout.mtx"
    sp.write_matrix(f, np.array([[1.0, 3.0], [2.0, 4.0]]))
    raw = f.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "2 2"
    assert lines[2:] == ["1", "2", "3", "4"]


def test_seventeen_digit_formatting(tmp_path):
    f = tmp_path / "digits.mtx"
    sp.write_matrix(f, np.array([[0.1]]))
    assert "0.10000000000000001" in f.read_text()


def test_comments_written_and_skipped(tmp_path):
    f = tmp_path / "comments.mtx"
    write_lines(f, [BANNER, "% made by tests", "%", "2 2",
                    "1", "0", "0", "1"])
    assert np.array_equal(sp.read_matrix(f), np.eye(2))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=12,
    )
)
@example([-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 0.1])
def test_round_trip_property(tmp_path_factory, values):
    a = np.array(values).reshape(1, -1)
    f = tmp_path_factory.mktemp("mm") / "prop.mtx"
    sp.write_matrix(f, a)
    assert sp.read_matrix(f).tobytes() == a.tobytes()
    # the body is exactly the per-entry 17-digit form
    expect = [BANNER, f"1 {len(values)}"] + [f"{x:.17g}" for x in values]
    assert f.read_bytes() == ("\n".join(expect) + "\n").encode("ascii")


def percent_pass(x, end):
    return "".join("%.17g" % v + end for v in x.tolist())


ULP_NEIGHBOURS = [np.nextafter(10.0**k, d) for k in range(-7, 17) for d in (0.0, np.inf)]
TIES = [26215 / 2**18, 26217 / 2**18, 1049 / 2**20, 1234567890123456.25]


def trailing_zeros_ladder():
    """For E in a spread of the kernel's exponents and z in [0, 16], a double
    whose 17-digit mantissa at exponent E ends in exactly z zeros, both
    signs: the stripped run ends inside every four-digit quad of N and on
    each quad boundary.  z = 16 has no double at E = -6 and -5: each d
    10^E, d in [1, 9], prints a nonzero last digit."""
    ladder = []
    for e, z in itertools.product((-6, -5, -4, -1, 0, 7, 15), range(17)):
        if z == 16 and e < -4:
            continue
        # the double nearest a (17 - z)-digit decimal keeps its digits at
        # 17 when it lies within half a unit of the 17th digit
        for r, last in itertools.product(range(9), "123456789"):
            digits = ("123456789" * 2)[r:r + 16 - z] + last
            v = float(f"{digits[0]}.{digits[1:]}e{e}")
            if ("%.16e" % v).replace(".", "") == f"{digits}{'0' * z}e{e:+03d}":
                ladder += [v, -v]
                break
        else:
            raise AssertionError(f"no double found for E = {e}, z = {z}")
    return ladder


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
             min_size=1, max_size=40),
    st.sampled_from([1, KERNEL_MIN - 1, KERNEL_MIN, 1000, CHUNK - 1, CHUNK, CHUNK + 1]),
    st.integers(0, 2**32 - 1),
)
@example([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 0.1, -2.5, 1e22], CHUNK + 1, 0)
@example(ULP_NEIGHBOURS + [10.0**k for k in range(-7, 17)], CHUNK + 1, 1)
@example([9.999999999999999e15, 1e16, 1e-6, np.nextafter(1e-6, 0.0),
          np.nextafter(1e-6, 1.0), 1e-5, 1e-4, -1e-6], CHUNK, 2)
@example(TIES + [-t for t in TIES], CHUNK - 1, 3)
@example([1e-300, 0.5, -1e300, 123.0, 0.0, 7e-7, 2.5e16, -3e-5], 1000, 4)
# N = 10^17 would need a double within half a unit of N's last digit
# below 10^k: the largest doubles below 10^k are in ULP_NEIGHBOURS, and
# none rounds up, so the kernel has no carry into E
@example(trailing_zeros_ladder() + ULP_NEIGHBOURS, CHUNK, 6)
def test_kernel_matches_percent_pass(tmp_path_factory, values, length, seed):
    # the numpy kernel gives the bytes of "%.17g" for every finite double:
    # the drawn values, repeated to a length around the kernel's threshold
    # or a chunk edge, in a shuffled order, half of the time interleaved
    # with random entries of every magnitude
    rng = np.random.default_rng(seed)
    x = np.resize(np.array(values), length)
    rng.shuffle(x)
    if seed % 2:
        mixed = rng.standard_normal(length) * 10.0 ** rng.integers(-12, 20, length)
        x[::2] = mixed[::2]
    # compared as lists of entries, which pytest diffs fast
    for end in ("\n", " "):
        assert _fmt_each(x, end).split(end) == percent_pass(x, end).split(end)
    # a non-contiguous view
    pairs = np.stack((x, x[::-1]), axis=1)
    assert _fmt_each(pairs[:, 1], " ").split() == percent_pass(x[::-1], " ").split()
    # write_matrix formats the column-major entries in chunks
    f = tmp_path_factory.mktemp("mm") / "kernel.mtx"
    sp.write_matrix(f, x.reshape(1, -1))
    want = f"{BANNER}\n1 {length}\n" + percent_pass(x, "\n")
    assert f.read_bytes().split(b"\n") == want.encode().split(b"\n")


@pytest.mark.parametrize("length", [KERNEL_MIN - 1, KERNEL_MIN])
def test_end_longer_than_three_bytes_raises(length):
    # the kernel writes end into three bytes of each entry's row; the
    # %-format pass below KERNEL_MIN refuses a longer end all the same
    x = np.linspace(0.1, 0.9, length)
    for end in (", ok ", "abcd"):
        with pytest.raises(ValueError, match="at most 3 bytes"):
            _fmt_each(x, end)
    assert _fmt_each(x, "abc") == percent_pass(x, "abc")


def test_write_matrix_memory_is_bounded(tmp_path):
    # write_matrix formats the entries in chunks: a 600x300 write peaks at
    # about 2.8 MB of traced allocations; a list, a tuple and one string of
    # all 180,000 entries peaked at 12,398,193 bytes
    a = sp.SplitMix64(1).normal_matrix(600, 300)
    tracemalloc.start()
    try:
        sp.write_matrix(tmp_path / "big.mtx", a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12_398_193


def traced_write_peak(path, a):
    tracemalloc.start()
    try:
        sp.write_matrix(path, a)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_matrix_copies_no_layout_whole(tmp_path):
    # write_matrix formats column blocks, so a C-order matrix peaks about
    # as low as the same matrix in F order; copying it whole into F order
    # peaked at 2.81 MB against 1.37 MB
    a = sp.SplitMix64(1).normal_matrix(600, 300)
    c_order, f_order = np.ascontiguousarray(a), np.asfortranarray(a)
    sp.write_matrix(tmp_path / "big.mtx", a[:1])  # builds the kernel's tables
    peaks = [traced_write_peak(tmp_path / "big.mtx", m) for m in (c_order, f_order)]
    assert peaks[0] <= 1.2 * peaks[1]


@pytest.mark.parametrize("shape", [
    (CHUNK + 1, 2), (2 * CHUNK + 3, 1), (CHUNK // 3 + 1, 7), (3, CHUNK + 5)])
def test_write_matrix_blocks_keep_the_column_major_bytes(tmp_path, shape):
    # column blocks of whole columns, or a long column's pieces, in either
    # layout, give one "%.17g" pass in column-major order
    a = sp.SplitMix64(sum(shape)).normal_matrix(*shape)
    want = f"{BANNER}\n{shape[0]} {shape[1]}\n" + percent_pass(a.ravel(order="F"), "\n")
    for m in (np.ascontiguousarray(a), np.asfortranarray(a)):
        sp.write_matrix(tmp_path / "b.mtx", m)
        assert (tmp_path / "b.mtx").read_bytes() == want.encode()


def test_unsupported_headers(tmp_path):
    cases = [
        "%%MatrixMarket matrix coordinate real general",
        "%%MatrixMarket matrix array complex general",
        "%%MatrixMarket matrix array integer general",
        "%%MatrixMarket vector array real general",
        "%%MatrixMarket matrix array real symmetric",
    ]
    for banner in cases:
        f = tmp_path / "u.mtx"
        write_lines(f, [banner, "1 1", "1"])
        with pytest.raises(UnsupportedFormat):
            sp.read_matrix(f)


def test_parse_error_line_numbers(tmp_path):
    f = tmp_path / "bad.mtx"

    write_lines(f, ["%%NotMatrixMarket whatever"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 1

    write_lines(f, ["%%MatrixMarket matrix array real general", "2 2",
                    "1", "2", "3"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 6  # first missing entry

    write_lines(f, ["%%MatrixMarket matrix array real general", "2"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 2

    write_lines(f, ["%%MatrixMarket matrix array real general", "1 2",
                    "1", "oops"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 4

    # Python's float() and int() read 1_5 as 15; MatrixMarket has no digit
    # separators
    write_lines(f, ["%%MatrixMarket matrix array real general", "1 1",
                    "1_5"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert (exc.value.line, exc.value.reason) == (3, "not a real number: '1_5'")

    write_lines(f, ["%%MatrixMarket matrix array real general", "1_0 1",
                    *["1"] * 10])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert (exc.value.line, exc.value.reason) == (
        2, "dimensions line must hold two integers")

    write_lines(f, ["%%MatrixMarket matrix array real general", "1 1",
                    "nan"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 3

    write_lines(f, ["%%MatrixMarket matrix array real general", "1 1",
                    "1", "trailing"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 4

    # banner and comments, no dimensions line: the error points past the end
    write_lines(f, ["%%MatrixMarket matrix array real general", "% a",
                    "% b"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 4

    write_lines(f, ["%%MatrixMarket matrix array real general", "% a",
                    "2 x", "1", "2"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 3

    write_lines(f, ["%%MatrixMarket matrix array real general", "2 1",
                    "1", "2 3"])
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 4

    write_lines(f, ["%%MatrixMarket matrix array real general", "0 2",
                    "1"])
    with pytest.raises(ParseError):
        sp.read_matrix(f)

    # each entry fault, with its reason; in a file that is also short, the
    # bad entry's error wins over the missing ones
    for entries, line, reason in [
        (["1", "", "2"], 4, "expected exactly one matrix entry"),
        (["1", "2 3", "4"], 4, "expected exactly one matrix entry"),
        (["1_5 2", "1", "1"], 3, "expected exactly one matrix entry"),
        (["1", "1", "oops"], 5, "not a real number: 'oops'"),
        (["nan", "1", "1"], 3, "non-finite entry: 'nan'"),
        (["1", "1e999", "1"], 4, "non-finite entry: '1e999'"),
        (["1", "x"], 4, "not a real number: 'x'"),
        (["1", "2"], 5, "expected 3 entries, file ends after 2"),
    ]:
        write_lines(f, ["%%MatrixMarket matrix array real general", "3 1",
                        *entries])
        with pytest.raises(ParseError) as exc:
            sp.read_matrix(f)
        assert (exc.value.line, exc.value.reason) == (line, reason)

    f.write_text("", encoding="ascii")
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 1


def test_entry_whitespace_is_stripped(tmp_path):
    # str.strip also drops the separators \x1c-\x1f, which float() keeps
    f = tmp_path / "ws.mtx"
    f.write_text(
        "%%MatrixMarket matrix array real general\n3 1\n 2.5\t\n+.5\x1c\n"
        "\x1f-1 \n",
        encoding="ascii",
    )
    assert sp.read_matrix(f).tolist() == [[2.5], [0.5], [-1.0]]


def test_blank_trailing_lines_tolerated(tmp_path):
    f = tmp_path / "trail.mtx"
    f.write_text(
        "%%MatrixMarket matrix array real general\n1 1\n2.5\n\n\n",
        encoding="ascii",
    )
    assert sp.read_matrix(f)[0, 0] == 2.5


def per_line_read(path):
    """The reader as it was before its bulk float pass: every entry line is
    stripped and converted on its own.  The oracle of the differential test
    below."""
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
    if [t.lower() for t in tokens[1:]] != ["matrix", "array", "real", "general"]:
        raise UnsupportedFormat(lines[0])
    pos = 1
    while pos < len(lines) and lines[pos].startswith("%"):
        pos += 1
    if pos >= len(lines):
        raise ParseError(len(lines) + 1, "missing dimensions line")
    dims = lines[pos].split()
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
    for lineno, line in enumerate(lines[pos:pos + need], pos + 1):
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
    return np.array(values).reshape((rows, cols), order="F")


# float() strips the first five and keeps \x1c-\x1f, which str.strip drops
PADDING = "\t \r\x0b\x0c\x1c\x1d\x1e\x1f"


@st.composite
def mutated_matrix_files(draw):
    """A valid dense file, then up to four faults or harmless variations."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = [f"{x:.17g}" for x in draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=rows * cols, max_size=rows * cols))]
    comments = ["% made by tests"] * draw(st.integers(0, 1))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["blank", "two", "underscore", "comment",
                                     "nonfinite", "pad", "short", "trailing"]))
        i = draw(st.integers(0, len(entries)))
        e = entries[i] if i < len(entries) else "1"
        if kind == "blank":
            entries.insert(i, draw(st.sampled_from(["", " ", "\x1c"])))
        elif kind == "two":
            entries[i:i + 1] = [f"{e} {e}"]
        elif kind == "underscore":
            j = draw(st.integers(0, len(e)))
            entries[i:i + 1] = [e[:j] + "_" + e[j:]]
        elif kind == "comment":
            comments.append("% a_b")
        elif kind == "nonfinite":
            entries[i:i + 1] = [draw(st.sampled_from(
                ["nan", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999"]))]
        elif kind == "pad":
            pad = st.text(PADDING, max_size=3)
            entries[i:i + 1] = [draw(pad) + e + draw(pad)]
        elif kind == "short":
            del entries[i:]
        else:
            entries.append(draw(st.sampled_from(["x", "1", "", "  ", "\x1f"])))
    lines = [BANNER, *comments, f"{rows} {cols}", *entries]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def read_outcome(read, path):
    try:
        a = read(path)
    except ParseError as exc:
        return "ParseError", exc.line, exc.reason
    return a.shape, a.dtype, a.tobytes()


@settings(max_examples=300, deadline=None)
@given(mutated_matrix_files())
@example(f"{BANNER}\n3 1\n 2.5\t\n+.5\x1c\n\x1f-1 \n")
@example(f"{BANNER}\n% a_b\n1 2\n1\n2\n")
@example(f"{BANNER}\n2 1\n1_5\n1e999\n")
@example(f"{BANNER}\n2 1\nnan\n\n")
@example(f"{BANNER}\n2 1\n1\n2\nx\n")
def test_read_matches_per_line_reader(tmp_path_factory, text):
    # values bitwise, or the same error line and reason
    f = tmp_path_factory.mktemp("mm") / "fuzz.mtx"
    f.write_bytes(text.encode("ascii"))
    assert read_outcome(sp.read_matrix, f) == read_outcome(per_line_read, f)


def test_oversized_header_fails_before_allocating(tmp_path):
    # the entry count is checked against the file before any array is sized
    # from the header
    f = tmp_path / "huge.mtx"
    for dims, need in [("100000000 100000000", 10**16), ("4000 4000", 16 * 10**6)]:
        write_lines(f, [BANNER, dims, "1", "2", "3"])
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                sp.read_matrix(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.line, exc.value.reason) == (
            6, f"expected {need} entries, file ends after 3")
        assert peak < 2**20


@pytest.mark.parametrize("v", [
    np.array([-0.0, 5e-324, 1e300, -1e300, 0.1]),
    np.array([]),
    np.array([0.1]),
    np.arange(12.0)[::3] / 7,
    np.arange(12.0).reshape(3, 4)[:, 1] / 3,
])
def test_bulk_formatter_matches_fmt(v):
    assert _fmt_vec(v) == " ".join(_fmt(x) for x in v)
    for end in (" ", "\n"):
        assert _fmt_each(v.tolist(), end) == "".join(_fmt(x) + end for x in v)


# -------------------------------------------------------------- report csv

def ladder_report():
    eps = [1e-2 * 0.5**i for i in range(4)]
    samples = [
        sp.ResidualSample(epsilon=e, res_u=e**2, res_v=0.5 * e**2,
                          res_sigma=0.1 * e**2)
        for e in eps
    ]
    return sp.fit_report(FormulaVariant.CORRECTED, samples)


def test_report_csv_schema(tmp_path):
    report = ladder_report()
    f = tmp_path / "r.csv"
    sp.write_report_csv(f, report)
    lines = f.read_text().splitlines()
    assert lines[0] == "variant,epsilon,res_u,res_v,res_sigma"
    assert len(lines) == 1 + 4 + 3
    for line in lines[1:5]:
        assert line.startswith("corrected,")
        assert len(line.split(",")) == 5
    assert lines[5].startswith("order_u,")
    assert lines[6].startswith("order_v,")
    assert lines[7].startswith("order_sigma,")


def test_report_csv_bytes(tmp_path):
    # every cell is "%.17g" of its float: the samples' as ladder_report
    # builds them, then each fit's order and r2, which are exactly 2 and 1
    rows = "".join("corrected,%.17g,%.17g,%.17g,%.17g\n" % (e, e**2, 0.5 * e**2, 0.1 * e**2)
                   for e in (1e-2 * 0.5**i for i in range(4)))
    footers = "".join("%s,%.17g,%.17g\n" % (name, 2.0, 1.0)
                      for name in ("order_u", "order_v", "order_sigma"))
    f = tmp_path / "r.csv"
    sp.write_report_csv(f, ladder_report())
    assert f.read_bytes() == ("variant,epsilon,res_u,res_v,res_sigma\n" + rows
                              + footers).encode("ascii")


def test_report_csv_values_round_trip(tmp_path):
    report = ladder_report()
    f = tmp_path / "r.csv"
    sp.write_report_csv(f, report)
    lines = f.read_text().splitlines()
    for line, sample in zip(lines[1:5], report.samples):
        _, eps, ru, rv, rs = line.split(",")
        assert float(eps) == sample.epsilon
        assert float(ru) == sample.res_u
        assert float(rv) == sample.res_v
        assert float(rs) == sample.res_sigma
    assert float(lines[5].split(",")[1]) == report.fit("u").order
    assert float(lines[7].split(",")[2]) == report.fit("sigma").r2


def test_report_csv_byte_stable(tmp_path):
    report = ladder_report()
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sp.write_report_csv(f1, report)
    sp.write_report_csv(f2, report)
    assert f1.read_bytes() == f2.read_bytes()
    assert b"\r" not in f1.read_bytes()
