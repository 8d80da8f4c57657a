"""Long-format ingestion: parse, pivot and size-filter location-activity output data.

Input is delimiter-separated text with a header row and three columns in
order (location, activity, value). Values are nonnegative decimal reals,
e.g. export USD. Gzip-compressed files are accepted when the name ends in
``.gz``.

:func:`parse_long_records` reads the whole text and hands it to numpy's C
reader (``np.loadtxt``), the fast path for plain tables. The record parser, a
``csv`` loop over the same text, reads it instead when the text holds ``"``
(csv quoting), NUL or CR (a file from :func:`open_text` holds no CR: it reads
CR and CRLF line ends as ``\\n``), when the header is not three fields, and
when no line follows the header, and when the C reader refuses the table or
reads it otherwise than ``csv`` would: a row count other than the number of
non-empty lines, a non-finite or negative value, a label that is empty after
trimming or longer than ``csv.field_size_limit()``. Text that ``float`` reads
and numpy does not, such as ``1_000``, takes the record parser too.
Every error and its 1-based line number come from the record parser, and
both paths build the same :class:`LongTable` from the same table.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import EmptyInput, MalformedLine, NegativeValue, NonNumericValue

#: the fields numpy's C reader parses each data row into
_ROW = np.dtype([("l", object), ("a", object), ("v", "f8")])


@dataclass(frozen=True, eq=False)
class LongTable:
    """Long-format rows column by column, in file order; duplicate (location,
    activity) pairs are kept as separate rows. ``locations`` and
    ``activities`` are object arrays of trimmed labels, ``values`` is
    float64."""

    locations: np.ndarray
    activities: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        """Same labels, and values with the same bits (``-0.0`` is not ``0.0``)."""
        if not isinstance(other, LongTable):
            return NotImplemented
        return (
            self.locations.tolist() == other.locations.tolist()
            and self.activities.tolist() == other.activities.tolist()
            and self.values.tobytes() == other.values.tobytes()
        )


@dataclass(frozen=True)
class OutputMatrix:
    """Dense nonnegative output matrix with label registries; margins derive from ``values``."""

    values: np.ndarray
    location_labels: tuple[str, ...]
    activity_labels: tuple[str, ...]

    def __post_init__(self):
        values = self.values
        if values.shape != (len(self.location_labels), len(self.activity_labels)):
            raise ValueError("matrix shape does not match label counts")
        if len(set(self.location_labels)) != len(self.location_labels):
            raise ValueError("duplicate location labels")
        if len(set(self.activity_labels)) != len(self.activity_labels):
            raise ValueError("duplicate activity labels")
        if values.size:
            if not np.isfinite(values).all():
                raise ValueError("matrix entries must be finite")
            if values.min() < 0:
                raise ValueError("matrix entries must be nonnegative")

    @classmethod
    def from_values(cls, values, location_labels, activity_labels) -> "OutputMatrix":
        return cls(np.ascontiguousarray(values, dtype=float), tuple(location_labels), tuple(activity_labels))

    @cached_property
    def row_totals(self) -> np.ndarray:
        return self.values.sum(axis=1)

    @cached_property
    def col_totals(self) -> np.ndarray:
        return self.values.sum(axis=0)

    @cached_property
    def grand_total(self) -> float:
        return float(self.values.sum())

    @property
    def is_empty(self) -> bool:
        return self.values.size == 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def open_text(path: str | Path) -> IO[str]:
    """Open a data file for reading, transparently decompressing ``.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def parse_long_records(stream: Iterable[str] | str, delimiter: str = ",") -> LongTable:
    """Parse header-prefixed long-format text into a :class:`LongTable`.

    ``stream`` is the text itself, a file object (read whole), or any other
    iterable of lines (read by the record parser). Duplicate (location,
    activity) pairs are kept as separate rows; merging happens in
    :func:`pivot_to_matrix`. Labels are whitespace-trimmed and matched
    case-sensitively; blank lines are skipped. Raises :class:`MalformedLine`,
    :class:`NonNumericValue` or :class:`NegativeValue` with the offending
    1-based line number.
    """
    if len(delimiter) != 1:
        raise ValueError("delimiter must be a single character")
    if isinstance(stream, str) or hasattr(stream, "read"):
        text = stream if isinstance(stream, str) else stream.read()
        table = _parse_columns(text, delimiter)
        if table is not None:
            return table
        stream = io.StringIO(text)
    return _parse_records(stream, delimiter)


def _parse_columns(text: str, delimiter: str) -> LongTable | None:
    """The table numpy's C reader reads from ``text``, or ``None`` when the
    record parser must read it (see the module docstring)."""
    header_end = text.find("\n")
    header = text if header_end < 0 else text[:header_end]
    if '"' in text or "\0" in text or "\r" in text or len(header.split(delimiter)) != 3:
        return None
    expected = _data_lines(text)
    if not expected:  # numpy warns on a table without rows
        return None
    # as bytes: a StringIO would hold the text again at 4 bytes a character
    lines = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="\n")
    try:
        data = np.loadtxt(lines, delimiter=delimiter, skiprows=1, dtype=_ROW, comments=None, ndmin=1)
    except ValueError:
        return None
    values = data["v"]
    if len(data) != expected or not (np.isfinite(values).all() and (values >= 0).all()):
        return None
    locations = _trimmed(data["l"])
    activities = _trimmed(data["a"])
    if locations is None or activities is None:
        return None
    return LongTable(locations, activities, values)


def _data_lines(text: str) -> int:
    """The number of non-empty lines after the first."""
    if "\n\n" not in text:
        return text.count("\n") - text.endswith("\n")
    lines = text.split("\n")[1:]
    return len(lines) - lines.count("")


def _trimmed(labels: np.ndarray) -> np.ndarray | None:
    """``labels`` whitespace-trimmed, or ``None`` when one is empty after
    trimming or longer than ``csv`` reads a field. Only the distinct labels
    are trimmed; padded variants of one label become that label."""
    distinct = list(dict.fromkeys(labels.tolist()))
    trimmed = [label.strip() for label in distinct]
    if not all(trimmed) or max(map(len, distinct)) > csv.field_size_limit():
        return None
    if trimmed == distinct:
        return labels
    return np.array(trimmed, dtype=object)[_label_index(labels)[0]]


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
    locations: list[str] = []
    activities: list[str] = []
    values: list[float] = []
    for row in rows:
        if not row:
            continue
        line = reader.line_num
        if len(row) != 3:
            raise MalformedLine(f"expected 3 columns, got {len(row)}", line)
        location = row[0].strip()
        activity = row[1].strip()
        if not location or not activity:
            raise MalformedLine("location and activity labels must be non-empty", line)
        text = row[2].strip()
        try:
            value = float(text)
        except ValueError:
            raise NonNumericValue(f"value {text!r} is not a number", line) from None
        if not math.isfinite(value):
            raise NonNumericValue(f"value {text!r} is not finite", line)
        if value < 0:
            raise NegativeValue(f"value {value!r} is negative", line)
        locations.append(location)
        activities.append(activity)
        values.append(value)
    return LongTable(np.array(locations, dtype=object), np.array(activities, dtype=object), np.array(values))


def _csv_rows(reader) -> Iterator[list[str]]:
    """``reader``'s rows; a ``csv.Error`` becomes :class:`MalformedLine` at its line."""
    try:
        yield from reader
    except csv.Error as err:
        raise MalformedLine(str(err), reader.line_num) from None


def pivot_to_matrix(table: LongTable) -> OutputMatrix:
    """Sum rows by (location, activity) into a dense matrix.

    Label order is first-appearance order. ``np.add.at`` is unbuffered and
    adds duplicates in row order, so each cell is the left-to-right sum of
    its values. Raises :class:`EmptyInput` when the table has no rows.
    """
    if not len(table):
        raise EmptyInput("no records to pivot")
    rows, locations = _label_index(table.locations)
    cols, activities = _label_index(table.activities)
    values = np.zeros((len(locations), len(activities)))
    np.add.at(values, (rows, cols), table.values)
    return OutputMatrix.from_values(values, locations, activities)


def _label_index(labels: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each label's position among the distinct labels, and the distinct
    labels in first-appearance order."""
    labels = labels.tolist()
    index = {label: i for i, label in enumerate(dict.fromkeys(labels))}
    return np.fromiter(map(index.__getitem__, labels), np.intp, len(labels)), tuple(index)


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
    ``m`` itself when everything is kept."""
    if keep_rows.all() and keep_cols.all():
        return m
    return type(m).from_values(
        m.values[keep_rows][:, keep_cols],
        [lab for lab, k in zip(m.location_labels, keep_rows) if k],
        [lab for lab, k in zip(m.activity_labels, keep_cols) if k],
    )
