"""Tests for CSV sample parsing/writing and report serialization."""

import csv
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import empcalc as ec
from empcalc import io as ec_io
from empcalc.cli import main


def parse(text: str):
    return ec.read_paired_csv(io.StringIO(text))


# ------------------------------------------------------------------ read

def test_read_plain_rows():
    s = parse("1.5,2.5\n-3,4e2\n")
    np.testing.assert_array_equal(s.xs, [1.5, -3.0])
    np.testing.assert_array_equal(s.ys, [2.5, 400.0])


def test_read_skips_single_header_row():
    s = parse("x,y\n1,2\n3,4\n")
    np.testing.assert_array_equal(s.xs, [1.0, 3.0])


def test_read_skips_blank_lines():
    s = parse("1,2\n\n   \n3,4\n")
    assert s.n == 2


def test_read_rejects_second_non_numeric_row():
    with pytest.raises(ec.InputFormatError, match="line 3: non-numeric value 'oops'"):
        parse("1,2\n3,4\noops,5\n")


def test_read_rejects_non_numeric_after_header():
    with pytest.raises(ec.InputFormatError, match="line 2: non-numeric value"):
        parse("x,y\nfoo,bar\n1,2\n")


def test_read_rejects_wrong_column_count():
    with pytest.raises(ec.InputFormatError, match="line 2: expected 2 columns, got 3"):
        parse("1,2\n3,4,5\n")
    with pytest.raises(ec.InputFormatError, match="expected 2 columns, got 1"):
        parse("1,2\n3\n")


def test_read_rejects_too_few_rows():
    with pytest.raises(ec.InputFormatError, match="need at least 2 data rows"):
        parse("x,y\n1,2\n")


def test_read_rejects_non_finite_values():
    with pytest.raises(ec.InputFormatError, match="non-finite"):
        parse("1,2\nnan,4\n")
    with pytest.raises(ec.InputFormatError, match="non-finite"):
        parse("1,2\n3,inf\n")


def test_read_from_path(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("1,2\n3,4\n")
    s = ec.read_paired_csv(str(path))
    assert s.n == 2


def test_read_ignores_leading_byte_order_mark():
    s = parse("\ufeff1.0,2.0\n3.0,4.0\n5.0,7.0\n")
    np.testing.assert_array_equal(s.xs, [1.0, 3.0, 5.0])
    np.testing.assert_array_equal(s.ys, [2.0, 4.0, 7.0])


def test_read_byte_order_mark_before_header_skips_only_the_header(tmp_path):
    text = "\ufeffx,y\n1,2\n3,4\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(text.encode("utf-8"))
    for s in (parse(text), ec.read_paired_csv(str(path))):
        np.testing.assert_array_equal(s.xs, [1.0, 3.0])
        np.testing.assert_array_equal(s.ys, [2.0, 4.0])
    with pytest.raises(ec.InputFormatError, match=r"^line 4: non-numeric value 'oops'$"):
        parse(text + "oops,5\n")


def test_read_byte_order_mark_from_unseekable_stream():
    stream = io.TextIOWrapper(io.BufferedReader(_Pipe(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")),
                              encoding="utf-8")
    assert ec.read_paired_csv(stream).xs.tolist() == [1.0, 3.0, 5.0]


@pytest.mark.parametrize("text, line", [
    ("1,2\n\ufeff3,4\n5,6\n", 2),
    ("x,y\n\ufeff1,2\n3,4\n", 2),
    ("1,2\n3,4\n5,6\n\ufeff7,8\n", 4),
])
def test_read_byte_order_mark_after_the_first_line_is_an_error(text, line):
    with pytest.raises(ec.InputFormatError, match=rf"^line {line}: non-numeric value '\\ufeff"):
        parse(text)


@pytest.mark.parametrize("data", [b"\xff1,2\n3,4\n", b"x,y\n1,2\n\xff\xfe,3\n4,5\n",
                                  b"".join(b"%d,%d\n" % (i, i) for i in range(3000)) + b"7,\xe9\n"],
                         ids=["first line", "second line", "after 16 KiB"])
def test_read_bytes_that_are_not_utf8_are_an_input_error(tmp_path, data):
    # a text stream decodes 8 KiB at a time, so the last case fails in a later block
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    stream = io.TextIOWrapper(io.BufferedReader(_Pipe(data)), encoding="utf-8")
    for source in (str(path), stream):
        with pytest.raises(ec.InputFormatError, match=r"^input is not UTF-8 text: cannot decode "
                                                      r"byte 0x(ff|e9) \("):
            ec.read_paired_csv(source)


def reference_row_parser(fh):
    """The reader as it was before block parsing: the csv module, one row at a time."""
    xs, ys = [], []
    header_allowed = True
    reader = csv.reader(fh)
    try:
        for row in reader:
            line = reader.line_num
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if len(cells) != 2:
                raise ec.InputFormatError(f"line {line}: expected 2 columns, got {len(cells)}")
            try:
                x = float(cells[0])
                y = float(cells[1])
            except ValueError:
                bad = cells[0] if not _is_number(cells[0]) else cells[1]
                if header_allowed and not (_is_number(cells[0]) or _is_number(cells[1])):
                    header_allowed = False
                    continue
                raise ec.InputFormatError(f"line {line}: non-numeric value {bad!r}") from None
            header_allowed = False
            if not (math.isfinite(x) and math.isfinite(y)):
                bad = cells[0] if not math.isfinite(x) else cells[1]
                raise ec.InputFormatError(f"line {line}: non-finite value {bad!r}")
            xs.append(x)
            ys.append(y)
    except csv.Error as exc:
        raise ec.InputFormatError(f"line {reader.line_num}: {exc}") from None
    if len(xs) < 2:
        raise ec.InputFormatError(f"need at least 2 data rows, got {len(xs)}")
    return ec.PairedSample(xs, ys)


def _is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def outcome(read, text, newline):
    """The parsed values as bytes, or the error type and message."""
    try:
        s = read(io.StringIO(text, newline=newline))
    except ec.InputFormatError as exc:
        return type(exc), str(exc)
    return s.xs.tobytes(), s.ys.tobytes()


number_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from([" 2.5 ", "+.5", "-0", "1e-400", "\t-1\x0c", "\xa07e1\u2003", "\x1c4\x1f"]),
)
data_lines = st.builds("{},{}".format, number_tokens, number_tokens)
odd_lines = st.one_of(
    st.sampled_from(["", "   ", "\t", ",", " , ", "x,y", "1", "1,2,3", "1,2,", '"1.5",2',
                     '3,"4"', '"5\n",6', "oops,5", "1,zz", "# 1,2",
                     "3,4\r5,6", "7,8\r", "\r", "1,\r2"]),
    st.builds("{},{}".format,
              st.sampled_from(["1_0", "nan", "-inf", "Infinity", "1e500", "abc", '"7"', "",
                               "1__0"]),
              number_tokens),
)


@st.composite
def csv_texts(draw):
    rows = draw(st.lists(data_lines, max_size=40))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd_lines))
    if draw(st.booleans()):
        rows.insert(0, "x,y")
    eol = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    text = eol.join(rows)
    if rows and draw(st.booleans()):
        text += eol
    return text


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.sampled_from([1, 7, 40, 200]),
       st.sampled_from(["\n", "", None, "\r\n", "\r"]))
def test_block_reader_matches_row_parser(text, block_chars, newline):
    r"""Values, or the error and its line number, equal the row parser's for any block size.

    ``newline=""`` splits lines as a file opened by path does, ``"\n"`` as
    io.StringIO does by default, ``None`` as a text file that translates
    line ends does, and ``"\r\n"`` and ``"\r"`` only at those ends.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ec_io, "_BLOCK_CHARS", block_chars)
        got = outcome(ec.read_paired_csv, text, newline)
    assert got == outcome(reference_row_parser, text, newline)


class _Pipe(io.RawIOBase):
    """A readable byte stream that cannot seek, as stdin fed by a pipe."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buf):
        return self._data.readinto(buf)


def sources(tmp_path, text):
    """The text as a path, a StringIO and an unseekable stream such as piped stdin."""
    path = tmp_path / "sample.csv"
    path.write_bytes(text.encode("utf-8"))
    yield str(path)
    yield io.StringIO(text)
    yield io.TextIOWrapper(io.BufferedReader(_Pipe(text.encode("utf-8"))), encoding="utf-8")


@pytest.mark.parametrize("first, bad", [
    ("1.5,2..0", "2..0"),
    ("x,1", "x"),
    ("1,y", "y"),
    ("\ufeff\ufeff1,2", "\ufeff1"),
    ("\ufeffx,1", "x"),
])
def test_read_first_row_with_one_non_numeric_cell_is_an_error(tmp_path, first, bad):
    for source in sources(tmp_path, first + "\n3,4\n5,6\n"):
        with pytest.raises(ec.InputFormatError,
                           match=rf"^line 1: non-numeric value {re.escape(repr(bad))}$"):
            ec.read_paired_csv(source)


@pytest.mark.parametrize("cell", ["nan", " -inf ", "Infinity", "1e999", '"nan"'])
def test_a_non_finite_cell_names_its_line(tmp_path, cell):
    # line 4 lies past the first data row, in a block np.loadtxt reads whole
    text = f"x,y\n1,2\n2,3\n{cell},4\n4,5\n"
    bad = cell.strip().strip('"')
    for source in sources(tmp_path, text):
        with pytest.raises(ec.InputFormatError,
                           match=rf"^line 4: non-finite value {re.escape(repr(bad))}$"):
            ec.read_paired_csv(source)


@pytest.mark.parametrize("header", ["x,y", " x , y ", "\ufeffx,y", "\n\nx,y"])
def test_read_first_row_with_two_non_numeric_cells_is_a_header(tmp_path, header):
    for source in sources(tmp_path, header + "\n1,2\n3,4\n"):
        s = ec.read_paired_csv(source)
        assert s.xs.tolist() == [1.0, 3.0]
        assert s.ys.tolist() == [2.0, 4.0]


def test_read_unseekable_stream_reports_line_past_first_block(monkeypatch):
    monkeypatch.setattr(ec_io, "_BLOCK_CHARS", 64)
    lines = ["x,y"] + [f"{i},{2 * i}" for i in range(1, 60)] + ["7,oops", "3,4"]
    stream = io.TextIOWrapper(io.BufferedReader(_Pipe("\n".join(lines).encode())))
    assert not stream.seekable()
    with pytest.raises(ec.InputFormatError, match=r"^line 61: non-numeric value 'oops'$"):
        ec.read_paired_csv(stream)



@pytest.mark.parametrize("text, reason", [
    ("x,y\n1,2\n3,4\r5,6\n", "new-line character seen in unquoted field"),
    ("x,y\n1,2\n" + "a" * 200_000 + ",1\n3,4\n", "field larger than field limit (131072)"),
], ids=["carriage return inside a line", "cell over the field limit"])
def test_read_a_record_the_csv_module_refuses_is_an_input_error(text, reason):
    # a StringIO splits lines only at \n, so the first text's line 3 holds a carriage return
    with pytest.raises(ec.InputFormatError, match=rf"^line 3: {re.escape(reason)}"):
        parse(text)


def test_quoted_record_across_block_end(monkeypatch):
    """A quoted cell holding a newline is read whole, and later line numbers still count it."""
    monkeypatch.setattr(ec_io, "_BLOCK_CHARS", 1)
    text = 'x,y\n1,2\n"3\n",4\n5,6\n'
    s = parse(text)
    assert s.xs.tolist() == [1.0, 3.0, 5.0]
    assert s.ys.tolist() == [2.0, 4.0, 6.0]
    with pytest.raises(ec.InputFormatError, match=r"^line 6: non-numeric value 'oops'$"):
        parse(text + "7,oops\n")

# ----------------------------------------------------------------- write

def test_write_format():
    s = ec.PairedSample(np.array([1.0, 0.1]), np.array([-2.0, 3.0]))
    buf = io.StringIO()
    ec.write_paired_csv(s, buf)
    assert buf.getvalue() == "x,y\n1,-2\n0.10000000000000001,3\n"


def test_write_read_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    s = ec.PairedSample(rng.normal(size=200) * 1e8, rng.normal(size=200) * 1e-8)
    path = tmp_path / "roundtrip.csv"
    ec.write_paired_csv(s, str(path))
    back = ec.read_paired_csv(str(path))
    np.testing.assert_array_equal(back.xs, s.xs)
    np.testing.assert_array_equal(back.ys, s.ys)


def test_write_read_write_is_byte_stable(tmp_path):
    rng = np.random.default_rng(9)
    s = ec.PairedSample(rng.normal(size=50), rng.normal(size=50))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ec.write_paired_csv(s, str(a))
    ec.write_paired_csv(ec.read_paired_csv(str(a)), str(b))
    assert a.read_bytes() == b.read_bytes()


# The writer's kernel at its edges: subnormals and the extremes (which fall
# back to %.17g), the %g layout's switches to and from e-notation at 1e-5,
# 1e-4, 1e16 and 1e17 with both neighbours, two- and three-digit exponents,
# one value with each count of significant digits from 1 to 17, and exact
# decimal ties at the 18th digit: 2**50 + 0.25 and + 0.75, where the scaled
# product is exact and rounds half to even, and some multiples of 2**-25,
# where 10**p is not exact and the tie falls back to %.17g.
# 1e-280 is the double 9.9999999999999996e-281: scaled by 10**296 it rounds
# to 1e16 at 16 digits, so its exponent must come from the unrounded product.
_LAYOUT_EDGES = [1e-5, 1e-4, 1e16, 1e17]
EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1e17, 1.0 / 3.0,
               1e-280, 1e100, 1e-100, 0.5, 2.0 ** 53,
               *np.nextafter(_LAYOUT_EDGES, 0.0).tolist(), *_LAYOUT_EDGES,
               *np.nextafter(_LAYOUT_EDGES, math.inf).tolist(),
               *(float("1234567890123456789"[:k] + "e-3") for k in range(1, 18)),
               2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, *(k * 2.0 ** -25 for k in range(1, 31, 2))]


def per_row_csv(s):
    """The writer as it was before block formatting: one f-string per row."""
    return "x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(s.xs, s.ys))


@pytest.mark.parametrize("block", [4, 7])
@pytest.mark.parametrize("extra", [0, -1, 1, None])
def test_block_writer_matches_per_row_format(tmp_path, monkeypatch, block, extra):
    """Same bytes as per-row formatting for 2, block - 1, block, block + 1, 2 block + 3 rows."""
    monkeypatch.setattr(ec_io, "_WRITE_ROWS", block)
    n = 2 * block + 3 if extra is None else block + extra
    for length in (2, n):
        for start in range(0, len(EDGE_VALUES), length):  # every edge value in both columns
            values = np.resize(np.roll(EDGE_VALUES, -start), length)
            s = ec.PairedSample(values, values[::-1] * -1.0)
            assert isinstance(s.xs[0], np.float64)
            expected = per_row_csv(s)
            buf = io.StringIO()
            ec.write_paired_csv(s, buf)
            assert buf.getvalue() == expected
            path = tmp_path / f"block_{length}.csv"
            ec.write_paired_csv(s, str(path))
            assert path.read_bytes() == expected.encode()


def test_writer_takes_the_exponent_from_the_unrounded_product():
    assert 9.9999999999999996e-281 == 1e-280
    assert ec_io._format(np.array([1e-280, -1e-280])) == \
        b"9.9999999999999996e-281,-9.9999999999999996e-281\n"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=64), st.integers(0, 2 ** 32 - 1))
def test_writer_matches_per_row_format_on_bit_patterns(patterns, seed):
    """Any finite double, in a sample of more than one block."""
    drawn = np.random.default_rng(seed).integers(0, 2 ** 64, 2 * ec_io._WRITE_ROWS + 64,
                                                 dtype=np.uint64)
    values = np.concatenate([np.array(patterns, dtype=np.uint64), drawn]).view(np.float64)
    values = values[np.isfinite(values)]
    half = len(values) // 2
    s = ec.PairedSample(values[:half], values[half:2 * half])
    assert s.n > ec_io._WRITE_ROWS
    buf = io.StringIO()
    ec.write_paired_csv(s, buf)
    assert buf.getvalue() == per_row_csv(s)


def test_writer_matches_per_row_format_around_every_power_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    values = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, math.inf)])
    s = ec.PairedSample(values, -values[::-1])
    buf = io.StringIO()
    ec.write_paired_csv(s, buf)
    assert buf.getvalue() == per_row_csv(s)


def test_writer_formats_bulk_values_without_the_fallback(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return "%.17g" % value

    monkeypatch.setattr(ec_io, "_fallback", counted)
    tens = [float(f"1e{k}") for k in range(-290, 309)]
    values = np.resize([0.0, -0.0, *range(-1000, 1001), *tens, 0.25, -1.5, 123.456], 4000)
    s = ec.PairedSample(values, values[::-1])
    buf = io.StringIO()
    ec.write_paired_csv(s, buf)
    assert buf.getvalue() == per_row_csv(s)
    assert calls == []
    # a subnormal takes it, and so does a near decimal tie where 10**p is not
    # exact: 2.1162656931557834e+25 scaled by 10**-9 is within 1e-6 of k + 1/2
    s = ec.PairedSample([5e-324, 1.0], [2.0, 2.1162656931557834e+25])
    buf = io.StringIO()
    ec.write_paired_csv(s, buf)
    assert buf.getvalue() == per_row_csv(s)
    assert calls == [5e-324, 2.1162656931557834e+25]


def test_commands_that_write_nothing_build_no_writer_tables(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + "".join(f"{i},{i * i % 7}\n" for i in range(40)))
    ec_io._tables.cache_clear()
    assert main(["variance", "--law", "gaussian", "--rho", "0.5"]) == 0
    assert main(["estimate", "--input", str(data)]) == 0
    capsys.readouterr()
    assert ec_io._tables.cache_info().currsize == 0
    ec.write_paired_csv(ec.PairedSample([1.0, 2.0], [3.0, 4.0]), io.StringIO())
    assert ec_io._tables.cache_info().currsize == 1


class _RecordingWriter:
    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)


@pytest.mark.parametrize("cell", ["%.17g", '"%.17g"'], ids=["plain", "quoted"])
def test_a_large_file_is_read_and_reduced_in_few_columns(tmp_path, cell):
    # reading holds the float64 parts and the two columns joined from them,
    # which the sample adopts, and one block of lines: 38 bytes a row.  Row-
    # parsed blocks kept as lists of Python floats, and the columns copied once
    # more, peaked at 51 bytes a row (plain) and 100 (all quoted).  The ten
    # moment means take three columns, u, v and one product column, 24 bytes
    # a row beyond the sample; a fresh array per product took 48.
    n = 200_000
    rng = np.random.default_rng(3)
    path = tmp_path / "big.csv"
    row = f"{cell},{cell}\n"
    path.write_text("x,y\n" + "".join(row % p for p in zip(rng.standard_normal(n).tolist(),
                                                            rng.standard_normal(n).tolist())))
    tracemalloc.start()
    try:
        s = ec.read_paired_csv(str(path))
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        ec.estimate_moments(s)
        moments_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert s.n == n
    assert read_peak <= 44 * n
    assert moments_peak <= 28 * n


def test_block_writer_memory_is_bounded(monkeypatch):
    """Each write() call holds at most one block's text, never the whole file."""
    block = 5
    monkeypatch.setattr(ec_io, "_WRITE_ROWS", block)
    n = 3 * block + 1
    values = np.resize(EDGE_VALUES, n)
    s = ec.PairedSample(values, values[::-1])
    dest = _RecordingWriter()
    ec.write_paired_csv(s, dest)
    assert "".join(dest.calls) == per_row_csv(s)
    assert len(dest.calls) == math.ceil(n / block) + 1
    rows = [len(f"{x:.17g},{y:.17g}\n") for x, y in zip(s.xs, s.ys)]
    longest_block = max(sum(rows[lo:lo + block]) for lo in range(0, n, block))
    assert max(len(text) for text in dest.calls) <= longest_block


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e300, max_value=1e300)


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=30))
def test_round_trip_property(pairs):
    s = ec.PairedSample([p[0] for p in pairs], [p[1] for p in pairs])
    buf = io.StringIO()
    ec.write_paired_csv(s, buf)
    back = ec.read_paired_csv(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(back.xs, s.xs)
    np.testing.assert_array_equal(back.ys, s.ys)


# ---------------------------------------------------------------- reports

SAMPLE_REPORT = {
    "command": "estimate",
    "config": {"law": {"kind": "gaussian", "rho": 0.5}, "n": 100},
    "results": {"rho_n": 0.8, "notes": None},
    "checks": [
        {"name": "variance_rel_error", "value": 0.01, "threshold": 0.1, "pass": True},
        {"name": "timing", "value": None, "threshold": None, "pass": True},
    ],
    "seed": 42,
}


def test_report_json_preserves_key_order():
    text = ec.report_to_json(SAMPLE_REPORT)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert list(parsed.keys()) == ["command", "config", "results", "checks", "seed"]
    assert parsed == SAMPLE_REPORT


def test_report_json_rejects_non_finite():
    with pytest.raises(ValueError):
        ec.report_to_json({"results": {"bad": math.inf}})


def test_report_csv_layout():
    text = ec.report_to_csv(SAMPLE_REPORT)
    lines = text.splitlines()
    assert lines[0] == "section,name,value,threshold,pass"
    assert lines[1] == "meta,command,estimate,,"
    assert lines[2] == "meta,seed,42,,"
    assert 'config,law,"{""kind"":""gaussian"",""rho"":0.5}",,' in lines
    assert "result,rho_n,0.8,," in lines
    assert "check,variance_rel_error,0.01,0.1,pass" in lines
    assert "check,timing,,,pass" in lines


def test_report_csv_uses_repr_for_floats():
    # 17 significant digits survive the flat format too
    rep = dict(SAMPLE_REPORT, results={"v": 0.1 + 0.2})
    assert "result,v,0.30000000000000004,," in ec.report_to_csv(rep)
