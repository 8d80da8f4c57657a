"""Long-format ingestion: parse, pivot and size-filter location-activity output data.

Input is delimiter-separated text with a header row and three columns in
order (location, activity, value). Values are nonnegative decimal reals,
e.g. export USD. Gzip-compressed files are accepted when the name ends in
``.gz``.

:func:`parse_long_records` takes the text or a text file object, which it
reads whole (:func:`read_text` decompresses a ``.gz`` file in one call), and
hands the text to numpy's C reader (``np.loadtxt``), the fast path for plain
tables, whose converters trim each label field and return the label's code, so
a row keeps two integers, not two strings. The data lines, after the header's,
are cut at line starts into contiguous ranges of about equal bytes, one per
usable CPU and at most one per ``BLOCK_CELLS`` rows: the fork rule of the
writers (:func:`ecindex._io.run_ranges`), so a table of fewer than twice that
many rows is one range. Each range is read with its own label coders, by the
parent for the first range and by a forked worker for each later one (by the
parent when that worker fails); a worker hands back its records (``np.save``)
and labels (text) in an unlinked temporary file. The parent merges the ranges
in order: a range's labels join the table's in first-appearance order, and its
codes are mapped onto them, so the table is the one a single coder reading
every line gives, bit for bit. The record parser, a ``csv`` loop over the same
text, reads it instead when the text holds ``"`` (csv quoting), NUL or CR (the
text from :func:`read_text` holds no CR: it reads CR and CRLF line ends as
``\\n``), when the header is not three fields, and when no line follows the
header, and when the C reader refuses any range or reads it otherwise than
``csv`` would: a row count other than the range's number of non-empty lines, a
non-finite or negative value, a label that is empty after trimming or longer
than ``csv.field_size_limit()`` (the converters refuse both). Text that
``float`` reads and numpy does not, such as ``1_000``, takes the record parser
too. Every error and its 1-based line number come from the record parser, and
both paths build the same :class:`LongTable` from the same table.

Both matrix types' ``from_values`` check outside input, such as the pivot of a
hand-built :class:`LongTable`; the pipeline's producers (``compute_rca``, ``binarize``,
:func:`restrict` and its cuts, ``relatedness_density``) build unchecked.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, BinaryIO, Iterable, Iterator

import numpy as np

from . import _io
from .errors import EmptyInput, MalformedLine, NegativeValue, NonNumericValue, OutOfRange, UndecodableInput

#: the fields numpy's C reader parses each data row into: two label codes and the value
_ROW = np.dtype([("l", np.intp), ("a", np.intp), ("v", "f8")])


@dataclass(frozen=True, eq=False)
class LongTable:
    """Long-format rows, dictionary-encoded: each column's distinct trimmed
    labels in first-appearance order, and per row, in file order, the codes
    (label positions) of its location and activity and its float64 value.
    Duplicate (location, activity) pairs are kept as separate rows."""

    location_labels: tuple[str, ...]
    activity_labels: tuple[str, ...]
    location_codes: np.ndarray
    activity_codes: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def checked_labels(values: np.ndarray, location_labels, activity_labels) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The labels of a matrix built outside the pipeline, as tuples; raises ``ValueError``
    when ``values``' shape does not match the label counts or an axis repeats a label."""
    location_labels, activity_labels = tuple(location_labels), tuple(activity_labels)
    if values.shape != (len(location_labels), len(activity_labels)):
        raise ValueError("matrix shape does not match label counts")
    if len(set(location_labels)) != len(location_labels):
        raise ValueError("duplicate location labels")
    if len(set(activity_labels)) != len(activity_labels):
        raise ValueError("duplicate activity labels")
    return location_labels, activity_labels


@dataclass(frozen=True)
class OutputMatrix:
    """Dense finite nonnegative location-activity matrix with distinct labels:
    the pivoted output, its RCA ratios or a relatedness density. Margins derive
    from ``values``. :meth:`from_values` checks the cells and labels; the plain
    constructor trusts its producer, such as RCA, :func:`restrict` and density."""

    values: np.ndarray
    location_labels: tuple[str, ...]
    activity_labels: tuple[str, ...]

    @classmethod
    def from_values(cls, values, location_labels, activity_labels) -> "OutputMatrix":
        values = np.ascontiguousarray(values, dtype=float)
        location_labels, activity_labels = checked_labels(values, location_labels, activity_labels)
        if values.size:
            if not np.isfinite(values).all():
                raise ValueError("matrix entries must be finite")
            if values.min() < 0:
                raise ValueError("matrix entries must be nonnegative")
        return cls(values, location_labels, activity_labels)

    @cached_property
    def row_totals(self) -> np.ndarray:
        return self.values.sum(axis=1)

    @cached_property
    def col_totals(self) -> np.ndarray:
        return self.values.sum(axis=0)

    @property
    def is_empty(self) -> bool:
        return self.values.size == 0


def read_text(path: str | Path) -> str:
    """The whole text of a data file, a ``.gz`` file decompressed in one call;
    it is decoded as UTF-8 in one call, with CR and CRLF line ends read as
    ``\\n`` as ``open`` reads text. No file or buffer outlives the call. Raises
    :class:`UndecodableInput` for text that is not UTF-8 and for truncated,
    corrupt or missing gzip data."""
    path = Path(path)
    try:
        data = path.read_bytes()
        if path.suffix == ".gz":
            data = gzip.decompress(data)
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise UndecodableInput(f"{path}: not UTF-8 text: {err.reason} (byte 0x{err.object[err.start]:02x})") from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as err:
        raise UndecodableInput(f"{path}: damaged gzip data: {err}") from None


def parse_long_records(source: str | IO[str], delimiter: str = ",") -> LongTable:
    """Parse header-prefixed long-format text into a :class:`LongTable`.

    ``source`` is the text itself or a text file object, read whole; the
    module docstring says which parser reads it. Duplicate (location,
    activity) pairs are kept as separate rows; merging happens in
    :func:`pivot_to_matrix`. Labels are whitespace-trimmed and matched
    case-sensitively; blank lines are skipped. Raises :class:`MalformedLine`,
    :class:`NonNumericValue` or :class:`NegativeValue` with the offending
    1-based line number.
    """
    if len(delimiter) != 1:
        raise ValueError("delimiter must be a single character")
    text = source if isinstance(source, str) else source.read()
    table = _parse_columns(text, delimiter)
    return table if table is not None else _parse_records(io.StringIO(text), delimiter)


def _parse_columns(text: str, delimiter: str) -> LongTable | None:
    """The table numpy's C reader reads from ``text``, range by range, or
    ``None`` when the record parser must read it (see the module docstring)."""
    header_end = text.find("\n")
    header = text if header_end < 0 else text[:header_end]
    if '"' in text or "\0" in text or "\r" in text or len(header.split(delimiter)) != 3:
        return None
    rows = _lines(text) - 1
    if not rows:
        return None
    ranges = _io._workers(rows // _io.BLOCK_CELLS)
    start = header_end + 1
    cuts = [*(_line_start(text, start + (len(text) - start) * j // ranges) for j in range(ranges)), len(text)]
    locations, activities = _Codes(), _Codes()
    columns: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def parse(j: int) -> tuple[np.ndarray, list[str], list[str]]:
        codes = _Codes(), _Codes()
        return _parse_range(text[cuts[j]:cuts[j + 1]], delimiter, *codes), *(list(c.labels) for c in codes)

    def work(j: int, part: BinaryIO) -> None:
        data, *labels = parse(j)
        np.save(part, data)
        # then each coder's labels: a label holds no line break or NUL
        part.write("\0".join(map("\n".join, labels)).encode("utf-8"))

    def take(j: int, part: BinaryIO | None) -> None:
        if part is None:
            data, *labels = parse(j)
        else:
            data = np.load(part)
            labels = [names.split("\n") if names else [] for names in part.read().decode("utf-8").split("\0")]
        columns.append((locations.recode(labels[0], data["l"]), activities.recode(labels[1], data["a"]), data["v"]))

    try:
        _io.run_ranges(ranges, work, take)
    except ValueError:
        return None
    l_codes, a_codes, values = map(np.concatenate, zip(*columns))
    return LongTable(tuple(locations.labels), tuple(activities.labels), l_codes, a_codes, values)


def _parse_range(part: str, delimiter: str, locations: _Codes, activities: _Codes) -> np.ndarray:
    """The data rows of ``part`` as :data:`_ROW` records with labels coded by
    ``locations`` and ``activities``. Raises ``ValueError`` when numpy's C
    reader refuses the rows or reads them otherwise than ``csv`` would."""
    rows = _lines(part)
    if not rows:  # numpy warns on a table without rows
        return np.empty(0, dtype=_ROW)
    # as bytes: a StringIO would hold the text again at 4 bytes a character
    lines = io.TextIOWrapper(io.BytesIO(part.encode("utf-8")), encoding="utf-8", newline="\n")
    # a field seen before is coded by the dict lookup alone; numpy before 2.0
    # hands converters latin-1 bytes unless told the encoding
    converters = {0: locations.__getitem__, 1: activities.__getitem__}
    data = np.loadtxt(lines, delimiter=delimiter, dtype=_ROW, comments=None, ndmin=1,
                      converters=converters, encoding="utf-8")
    values = data["v"]
    if len(data) != rows or not (np.isfinite(values).all() and (values >= 0).all()):
        raise ValueError("numpy's reader read otherwise than csv")
    return data


def _line_start(text: str, at: int) -> int:
    """The first line start at or after ``at``, or ``len(text)``."""
    end = text.find("\n", at - 1)
    return len(text) if end < 0 else end + 1


def _lines(text: str) -> int:
    """The number of non-empty lines."""
    if text and "\n\n" not in text and text[0] != "\n":
        return text.count("\n") + (text[-1] != "\n")
    lines = text.split("\n")
    return len(lines) - lines.count("")


class _Codes(dict):
    """Label field -> code of its trimmed label. ``labels`` maps each trimmed
    label to its code, the next free one at its first appearance, so padded
    variants of one label share its code. A field whose label is empty after
    trimming, or that is longer than ``csv`` reads, raises ``ValueError``."""

    def __init__(self):
        super().__init__()
        self.labels: dict[str, int] = {}

    def __missing__(self, field: str) -> int:
        label = field.strip()
        if not label or len(field) > csv.field_size_limit():
            raise ValueError("empty or oversized label")
        code = self[field] = self.labels.setdefault(label, len(self.labels))
        return code

    def recode(self, labels: list[str], codes: np.ndarray) -> np.ndarray:
        """``codes`` of ``labels`` (another coder's labels, in code order) as
        codes of this coder's labels, which gain the new ones in order."""
        mapping = np.array([self.labels.setdefault(label, len(self.labels)) for label in labels], dtype=np.intp)
        return np.take(mapping, codes)


def _parse_records(stream: Iterable[str], delimiter: str) -> LongTable:
    """The record parser: one ``csv`` row at a time, each checked, so that
    every error carries its 1-based line number."""
    reader = csv.reader(stream, delimiter=delimiter)
    rows = _csv_rows(reader)
    header = next(rows, None)
    if header is None:
        raise EmptyInput("input has no header line")
    if len(header) != 3:
        raise MalformedLine(f"header must name exactly 3 columns, got {len(header)}", reader.line_num)
    locations, activities = _Codes(), _Codes()
    codes: list[tuple[int, int]] = []
    values: list[float] = []
    for row in rows:
        if not row:
            continue
        line = reader.line_num
        if len(row) != 3:
            raise MalformedLine(f"expected 3 columns, got {len(row)}", line)
        try:  # csv refuses an oversized field itself: only an empty label gets here
            code = locations[row[0]], activities[row[1]]
        except ValueError:
            raise MalformedLine("location and activity labels must be non-empty", line) from None
        text = row[2].strip()
        try:
            value = float(text)
        except ValueError:
            raise NonNumericValue(f"value {text!r} is not a number", line) from None
        if not math.isfinite(value):
            raise NonNumericValue(f"value {text!r} is not finite", line)
        if value < 0:
            raise NegativeValue(f"value {value!r} is negative", line)
        codes.append(code)
        values.append(value)
    pairs = np.array(codes, dtype=np.intp).reshape(-1, 2)
    return LongTable(tuple(locations.labels), tuple(activities.labels), pairs[:, 0], pairs[:, 1], np.array(values))


def _csv_rows(reader) -> Iterator[list[str]]:
    """``reader``'s rows; a ``csv.Error`` becomes :class:`MalformedLine` at its line."""
    try:
        yield from reader
    except csv.Error as err:
        raise MalformedLine(str(err), reader.line_num) from None


@np.errstate(over="ignore")  # an infinite sum is refused below
def pivot_to_matrix(table: LongTable) -> OutputMatrix:
    """Sum rows by (location, activity) into a dense matrix over the table's
    labels. ``np.add.at`` on the label codes is unbuffered and adds duplicates
    in row order, so each cell is the left-to-right sum of its values. Raises
    :class:`EmptyInput` for no rows and :class:`OutOfRange` for an infinite sum.
    """
    if not len(table):
        raise EmptyInput("no records to pivot")
    values = np.zeros((len(table.location_labels), len(table.activity_labels)))
    np.add.at(values, (table.location_codes, table.activity_codes), table.values)
    if not np.isfinite(values).all():
        c, p = np.argwhere(np.isinf(values))[0]
        raise OutOfRange(f"cell ({table.location_labels[c]}, {table.activity_labels[p]}) sums past the largest double")
    return OutputMatrix.from_values(values, table.location_labels, table.activity_labels)


def left_tail_filter(
    m: OutputMatrix,
    min_location_total: float = 0.0,
    min_activity_total: float = 0.0,
) -> OutputMatrix:
    """Drop small locations and activities, iterating to a fixed point.

    Each pass removes locations with total output below ``min_location_total``
    and activities below ``min_activity_total``, then recomputes totals,
    until nothing more is dropped. Removing a large location can push an
    activity below threshold, so a single pass would depend on ordering.
    Everything being dropped is a valid outcome: the result is empty, not an
    error.
    """
    for name, threshold in (("min_location_total", min_location_total),
                            ("min_activity_total", min_activity_total)):
        if not math.isfinite(threshold) or threshold < 0:
            raise ValueError(f"{name} must be finite and >= 0")
    while True:
        keep_rows = m.values.sum(axis=1) >= min_location_total
        keep_cols = m.values.sum(axis=0) >= min_activity_total
        if keep_rows.all() and keep_cols.all():
            return m
        m = restrict(m, keep_rows, keep_cols)


def drop_empty_margins(m: OutputMatrix) -> OutputMatrix:
    """Remove locations and activities with exactly zero total output.

    A zero row contributes nothing to column totals (and vice versa), so one
    simultaneous pass reaches the fixed point.
    """
    return restrict(m, m.row_totals > 0, m.col_totals > 0)


def restrict(m, keep_rows: np.ndarray, keep_cols: np.ndarray):
    """The kept rows and columns of an output or incidence matrix, as ``type(m)``;
    ``m`` itself when everything is kept. A subset of a valid matrix is valid: unchecked.
    ``np.ix_`` keeps C order, on which the last bits of every later sum depend."""
    if keep_rows.all() and keep_cols.all():
        return m
    return type(m)(
        m.values[np.ix_(keep_rows, keep_cols)],
        tuple(lab for lab, k in zip(m.location_labels, keep_rows) if k),
        tuple(lab for lab, k in zip(m.activity_labels, keep_cols) if k),
    )
