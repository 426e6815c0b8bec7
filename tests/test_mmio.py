"""File format tests: dense MatrixMarket subset and the report CSV.

Round-trip fidelity is the core contract: 17 significant digits preserve
every finite double bitwise, including signed zeros and subnormals.
"""

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
    assert float(lines[5].split(",")[1]) == report.order_u
    assert float(lines[7].split(",")[2]) == report.r2_sigma


def test_report_csv_byte_stable(tmp_path):
    report = ladder_report()
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sp.write_report_csv(f1, report)
    sp.write_report_csv(f2, report)
    assert f1.read_bytes() == f2.read_bytes()
    assert b"\r" not in f1.read_bytes()
