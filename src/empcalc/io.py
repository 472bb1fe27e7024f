"""CSV sample files, and the report every command produces.

Sample files are two numeric columns, comma-separated, one observation
per row.  Blank lines are ignored.  The first non-blank row is a header,
and is skipped, only when both of its cells are non-numeric: a first row
with one non-numeric cell, such as ``1.5,2..0`` or ``x,1``, is an error
with its line number and that cell, like any later row.  Writing uses 17
significant digits, which round-trips IEEE doubles exactly, so
write -> read -> write is byte-stable.

Writing goes in blocks of ``_WRITE_ROWS`` rows.  Each block is copied
into one reused (rows, 2) buffer, formatted by a single %-operation and
written by one write() call, so at most one block of text (about 330 KB)
is held at a time, never the whole file.  ``%.17g`` on a Python float
gives the same bytes as ``format(x, ".17g")`` on a numpy float64.

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

# Rows formatted by one %-operation and written by one write() call.
_WRITE_ROWS = 8192
_ROW_FORMAT = "%.17g,%.17g\n"


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

    Rows are formatted and written ``_WRITE_ROWS`` at a time, so memory
    beyond the sample stays at one block of text whatever the row count.
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
        fh.write(_ROW_FORMAT * len(block) % tuple(block.ravel().tolist()))


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
