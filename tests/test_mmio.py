"""File format tests: dense MatrixMarket subset and the report CSV.

Round-trip fidelity is the core contract: 17 significant digits preserve
every finite double bitwise, including signed zeros and subnormals.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svdpert as sp
from svdpert import FormulaVariant
from svdpert.errors import ParseError, UnsupportedFormat
from svdpert.mmio import BANNER


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

    f.write_text("", encoding="ascii")
    with pytest.raises(ParseError) as exc:
        sp.read_matrix(f)
    assert exc.value.line == 1


def test_blank_trailing_lines_tolerated(tmp_path):
    f = tmp_path / "trail.mtx"
    f.write_text(
        "%%MatrixMarket matrix array real general\n1 1\n2.5\n\n\n",
        encoding="ascii",
    )
    assert sp.read_matrix(f)[0, 0] == 2.5


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
