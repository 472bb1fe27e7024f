"""CSV sample files, and the report every command produces.

Sample files are two numeric columns, comma-separated, one observation
per row.  Blank lines are ignored.  The first non-blank row is a header,
and is skipped, only when both of its cells are non-numeric: a first row
with one non-numeric cell, such as ``1.5,2..0`` or ``x,1``, is an error
with its line number and that cell, like any later row.  Writing uses 17
significant digits, which round-trips IEEE doubles exactly, so
write -> read -> write is byte-stable.

Writing goes in blocks of ``_WRITE_ROWS`` rows.  Each block is copied
into one reused (rows, 2) buffer, formatted by a numpy kernel and written
by one write() call, so at most one block of text (about 330 KB) is held
at a time, never the whole file; the kernel's arrays for a block peak at
about 7 MB.  The kernel gives each value the bytes of ``%.17g``: it
scales |v| by 10**(16 - e) as a double-double (Dekker's error-free
product with a table of 10**p to about 2**-106), checks that the
unrounded product lies in [1e16, 1e17), rounds it to 17 digits, drops
trailing zeros and lays the digits out as %g does.  A value whose
rounding it cannot prove goes to ``%.17g`` itself, one value at a time:
subnormals and |v| below 1e-291, the few doubles just under the largest,
and near decimal ties where 10**p is not exact.  ``%.17g`` on a Python
float gives the same bytes as ``format(x, ".17g")`` on a numpy float64.

Reading is done in one pass; bytes that are not UTF-8 are an error.  One
U+FEFF byte-order mark at the start of the first line is ignored, for
paths and file objects alike; anywhere else it is a non-numeric cell.  A
row parser (the csv module, one row at a time) reads up to and including
the first data row, which settles the header.  The rest is read in blocks
of whole lines, about 1 MiB each, and np.loadtxt parses each block's lines
as the file object split them.  A block that np.loadtxt rejects, that
does not give two columns or that holds a value that is not finite goes to
the row parser, and the next block goes to np.loadtxt again: blocks with
quoted cells, blank, whitespace-only or comma-only lines, wrong column
counts, non-numeric cells, a carriage return or newline inside a line,
tokens such as ``1_0``, or ``nan``, ``inf`` and ``1e999``, which overflows.
The values, and every error with its 1-based physical line number (also
for a record the csv module refuses or a value that is not finite), are
those of the row parser reading the whole input.
Every block is kept as float64 arrays, a row-parsed block's values
converted as soon as it is read, and the sample adopts the two columns
joined from them: 16 bytes a row for the parts and 16 for the columns.
"""

from __future__ import annotations

import csv
import functools
import io as _io
import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import IO, Optional, Union

import numpy as np

from .errors import InputFormatError
from .sample import PairedSample

PathOrFile = Union[str, IO]

# Characters of whole lines handed to one np.loadtxt call.
_BLOCK_CHARS = 1 << 20

# A byte-order mark, ignored once at the start of the input.
_BOM = "\ufeff"

# Rows formatted and written by one write() call.
_WRITE_ROWS = 8192

# The powers of ten in the writer's table, and the |v| its kernel formats.
_P_MIN, _P_MAX = -292, 308
_V_MIN, _V_MAX = 1e-291, 1.79e308

# Each value is laid out from a 32-byte source row: 0 '-', 1 '0', 2 '.',
# 3-19 the 17 digits, 20 'e', 21 the exponent's sign, 24-27 the exponent
# as 4 digits, 28 the separator and 31 a NUL byte that pads templates.
_ROW, _SEP, _PAD = 32, 28, 31


def read_paired_csv(source: PathOrFile) -> PairedSample:
    """Parse a two-column CSV into a PairedSample.

    Errors carry 1-based physical line numbers.  ``source`` is a path,
    read as UTF-8, or a readable text file object.
    """
    try:
        if hasattr(source, "read"):
            return _parse(source)
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _parse(fh)
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"input is not UTF-8 text: cannot decode byte "
                               f"0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def _parse(fh) -> PairedSample:
    lines = iter(fh.readline, "")
    if first := next(lines, ""):
        lines = chain([first.removeprefix(_BOM)], lines)
    # The row parser takes everything up to and including the first data
    # row, so the header rule lives in one place.
    xs, ys, line_offset = _read_rows(lines, header_allowed=True)
    x_parts, y_parts = [xs], [ys]
    while block := fh.readlines(_BLOCK_CHARS):
        values = _load_block(block)
        if values is None:
            # A quoted record that runs past the block's end is read whole.
            xs, ys, used = _read_rows(chain(block, lines), line_offset, stop=len(block))
        else:
            xs, ys, used = values[:, 0], values[:, 1], len(block)
        x_parts.append(xs)
        y_parts.append(ys)
        line_offset += used
    xs = np.concatenate(x_parts)
    if len(xs) < 2:
        raise InputFormatError(f"need at least 2 data rows, got {len(xs)}")
    return PairedSample._adopt(xs, np.concatenate(y_parts))


def _load_block(block: list[str]):
    """The (k, 2) values of the lines as read, or None if the row parser must take them.

    np.loadtxt refuses a line with a carriage return or newline before its end.
    A non-finite value goes to the row parser too, which names its line.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            values = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    return values if values.shape[1] == 2 and np.isfinite(values).all() else None


def _read_rows(lines, line_offset: int = 0, header_allowed: bool = False,
               stop: float = math.inf):
    """Row-parse ``lines``; return the x and y values, as float arrays, and the lines read.

    Blank rows are skipped.  With ``header_allowed`` the first non-blank
    row is skipped if both of its cells are non-numeric, and reading ends
    after the first data row.  Otherwise reading ends with the record that
    reaches line ``stop``, or at the end of ``lines``.  A value that is not
    finite is an error, as a non-numeric one is.  Error line numbers, also
    those of a record the csv module refuses, count from ``line_offset``.
    """
    xs: list[float] = []
    ys: list[float] = []
    first_row_only = header_allowed
    isfinite = math.isfinite
    reader = csv.reader(lines)
    try:
        for row in reader:
            try:
                x, y = row
                x = float(x)
                y = float(y)
            except ValueError:
                # Parse the row again with its cells stripped, as float() does
                # not strip every character that str.strip() does.  This path
                # also settles blank rows, the header row and errors.
                cells = [c.strip() for c in row]
                if not any(cells):
                    x = None
                else:
                    line = line_offset + reader.line_num
                    if len(cells) != 2:
                        raise InputFormatError(
                            f"line {line}: expected 2 columns, got {len(cells)}") from None
                    try:
                        x = float(cells[0])
                        y = float(cells[1])
                    except ValueError:
                        bad = [c for c in cells if not _is_number(c)]
                        if not (header_allowed and len(bad) == 2):
                            raise InputFormatError(
                                f"line {line}: non-numeric value {bad[0]!r}") from None
                        x = None
                    header_allowed = False
            if x is not None:
                if not (isfinite(x) and isfinite(y)):
                    bad = row[0] if not isfinite(x) else row[1]
                    raise InputFormatError(f"line {line_offset + reader.line_num}: "
                                           f"non-finite value {bad.strip()!r}")
                xs.append(x)
                ys.append(y)
                if first_row_only:
                    break
            if reader.line_num >= stop:
                break
    except csv.Error as exc:
        raise InputFormatError(f"line {line_offset + reader.line_num}: {exc}") from None
    return np.array(xs, dtype=float), np.array(ys, dtype=float), reader.line_num


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def write_paired_csv(sample: PairedSample, dest: PathOrFile) -> None:
    """Write a PairedSample as CSV with an x,y header, 17 significant digits.

    Each row is ``"%.17g,%.17g\\n" % (x, y)`` byte for byte.  Rows are
    formatted and written ``_WRITE_ROWS`` at a time, so memory beyond the
    sample stays at one block of text whatever the row count.  A numpy
    kernel makes the digits: it rounds an error-free scaled product, so
    its digits are the correctly rounded ones that ``%.17g`` prints, and
    the values whose rounding it cannot prove go to ``%.17g`` itself.
    """
    if hasattr(dest, "write"):
        _write(sample, dest)
    else:
        with open(dest, "w", newline="") as fh:
            _write(sample, fh)


def _write(sample: PairedSample, fh) -> None:
    fh.write("x,y\n")
    n = sample.n
    pairs = np.empty((min(_WRITE_ROWS, n), 2))
    for lo in range(0, n, _WRITE_ROWS):
        block = pairs[:n - lo]
        block[:, 0] = sample.xs[lo:lo + len(block)]
        block[:, 1] = sample.ys[lo:lo + len(block)]
        fh.write(_format(block.ravel()).decode("ascii"))


def _fallback(value: float) -> str:
    """``%.17g`` of one value the kernel cannot prove."""
    return "%.17g" % value


def _split(x: np.ndarray):
    """x = hi + lo exactly, each with at most 26 significant bits."""
    hi = ((x.view(np.uint64) + np.uint64(1 << 26)) & np.uint64(0xFFFFFFFFF8000000)).view(float)
    return hi, x - hi


@functools.cache
def _tables():
    """The kernel's tables, built on the first write, never at import."""
    # 10**p = num / den = hi + lo, each part correctly rounded by int division.
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        hi.append(num / den)
        n, d = hi[-1].as_integer_ratio()
        lo.append((num * d - n * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    quads = [b"%04d" % i for i in range(10000)]
    trailing = np.array([4] + [4 - len(q.rstrip(b"0")) for q in quads[1:]])
    # A template per (sign, layout, significant digits): the source-row bytes
    # of the value and its separator.  Layouts are %g's fixed notation for
    # exponents -4..16, then d.ddde±XX and d.ddde±XXX.
    digits, templates = list(range(3, 20)), []
    for minus in ([], [0]):
        for x in range(-4, 19):
            for sig in range(1, 18):
                if x < 0:
                    body = [1, 2] + [1] * (-1 - x) + digits[:sig]
                elif x < 17:
                    body = digits[:x + 1] + ([2] + digits[x + 1:sig] if sig > x + 1 else [])
                else:  # x = 17 and 18 stand for two- and three-digit exponents
                    body = digits[:1] + ([2] + digits[1:sig] if sig > 1 else [])
                    body += [20, 21, 26, 27] if x == 17 else [20, 21, 25, 26, 27]
                templates.append(minus + body + [_SEP])
    templates += [list(range(n)) + [_SEP] for n in range(1, 25)]  # a fallback's own text
    index = np.full((len(templates), 25), _PAD, np.intp)
    for row, t in zip(index, templates):
        row[:len(t)] = t
    base = np.zeros((2, _ROW), np.uint8)
    base[:, :3] = list(b"-0.")
    base[:, 20] = ord("e")
    base[:, _SEP] = list(b",\n")
    return hi, lo, np.frombuffer(b"".join(quads), np.uint32), trailing, index, base


def _scaled(v, e, hi, lo):
    """v * 10**(16 - e) as h + l, and whether it lies in [1e16, 1e17), with a margin of 1e-3."""
    p = 16 - e - _P_MIN
    t = hi[p]
    (v1, v2), (t1, t2) = _split(v), _split(t)
    h = v * t  # Dekker's product: the parenthesised sum is v * t - h exactly
    l = ((((v1 * t1 - h) + v1 * t2) + v2 * t1) + v2 * t2) + v * lo[p]
    return h, l, ((h - 1e16) + l >= -1e-3) & ((h - 1e17) + l < 1e-3)


def _format(a: np.ndarray) -> bytes:
    """``%.17g`` of each of the values, a comma after even positions, a newline after odd."""
    hi, lo, quads, trailing, index, base = _tables()
    v = np.abs(a)
    kernel = (v >= _V_MIN) & (v < _V_MAX)
    w = np.where(kernel, v, 1.0)
    e = np.floor(np.log10(w)).astype(np.int64)
    h, l, inside = _scaled(w, e, hi, lo)
    # log10 can be one off near a power of ten: retry once on the other side.
    redo = np.flatnonzero(~inside)
    if len(redo):
        e[redo] += np.where(h[redo] <= 1e16, -1, 1)
        h[redo], l[redo], inside[redo] = _scaled(w[redo], e[redo], hi, lo)
    # h is an even integer, and h + l is exact where 10**p is (p in 0..22),
    # so rint rounds a tie to even as %.17g does; elsewhere a near tie falls back.
    tie = (np.abs(l - np.floor(l) - 0.5) <= 1e-6) & ((e < -6) | (e > 16))
    fallback = (v != 0) & ~(kernel & inside & ~tie)
    # The 17 digits as one integer, and 0 for zeros and values not inside.
    mant = (h.astype(np.int64) + np.rint(l).astype(np.int64)) * (inside & (v != 0))
    top = mant == 10 ** 17  # rounded up to the next power of ten
    mant -= top * 9 * 10 ** 16
    e += top
    high, low = np.divmod(mant, 10 ** 8)
    lead, high = np.divmod(high, 10 ** 8)
    chunks = np.stack(np.divmod(high, 10 ** 4) + np.divmod(low, 10 ** 4), axis=1)
    src = np.empty((len(a), _ROW), np.uint8)
    src.reshape(-1, 2, _ROW)[:] = base
    words = src.view(np.uint32)
    words[:, 1:5] = quads[chunks]
    words[:, 6] = quads[np.abs(e)]
    src[:, 3] = lead + ord("0")
    src[:, 21] = np.where(e < 0, ord("-"), ord("+"))
    c1, c2, c3, c4 = chunks.T  # trailing zero digits; 16 leave one digit
    zeros = trailing[c4] + (c4 == 0) * (trailing[c3] + (c3 == 0) * (
        trailing[c2] + (c2 == 0) * trailing[c1]))
    layout = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
    k = (np.signbit(a) * 23 + layout) * 17 + 16 - zeros
    for i in np.flatnonzero(fallback):  # the value's own text, from byte 0
        text = _fallback(float(a[i])).encode()
        src[i, :len(text)] = list(text)
        k[i] = 2 * 23 * 17 + len(text) - 1
    take = index[k]  # each value's template, moved to its row; NUL pads drop out
    take += np.arange(0, src.size, _ROW)[:, None]
    out = src.ravel().take(take)
    return out[out != 0].tobytes()


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail comparison with its threshold, for reports."""

    name: str
    value: Optional[float]
    threshold: Optional[float]
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "threshold": self.threshold, "pass": self.passed}


@dataclass
class Report:
    """What one command produced, for the library and the command line alike.

    ``config`` echoes what determines the numbers, and nothing else, so
    equal inputs give equal bytes for one numpy build on one CPU; another
    machine can differ in the last bits of sampled values (see ``laws``).
    ``to_dict`` fixes the key order {command, config, results, checks,
    seed} for diffability.
    """

    command: str
    config: dict
    results: dict
    checks: list[CheckResult]
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"command": self.command, "config": self.config,
                "results": self.results,
                "checks": [c.to_dict() for c in self.checks], "seed": self.seed}


def report_to_json(report: dict) -> str:
    """Serialize a report dict with stable key order (insertion order)."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def report_to_csv(report: dict) -> str:
    """Flatten a report to rows of section,name,value[,threshold,pass].

    Nested config values (law echoes, lists) are serialized as compact
    JSON inside the cell; the csv module quotes them as needed.
    """
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "name", "value", "threshold", "pass"])

    def cell(v) -> str:
        if isinstance(v, (dict, list)):
            return json.dumps(v, separators=(",", ":"))
        if v is None:
            return ""
        return repr(v) if isinstance(v, float) else str(v)

    writer.writerow(["meta", "command", cell(report.get("command")), "", ""])
    writer.writerow(["meta", "seed", cell(report.get("seed")), "", ""])
    for key, value in report.get("config", {}).items():
        writer.writerow(["config", key, cell(value), "", ""])
    for key, value in report.get("results", {}).items():
        writer.writerow(["result", key, cell(value), "", ""])
    for check in report.get("checks", []):
        writer.writerow(["check", check["name"], cell(check["value"]),
                         cell(check["threshold"]),
                         "pass" if check["pass"] else "fail"])
    return buf.getvalue()
