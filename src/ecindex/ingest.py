"""Long-format ingestion: parse, pivot and size-filter location-activity output data.

Input is delimiter-separated text with a header row and three columns in
order (location, activity, value). Values are nonnegative decimal reals,
e.g. export USD. Gzip-compressed files are accepted when the name ends in
``.gz``.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, NamedTuple

import numpy as np

from .errors import EmptyInput, MalformedLine, NegativeValue, NonNumericValue

#: relative tolerance for stored vs recomputed margins
MARGIN_RTOL = 1e-9


class LongRecord(NamedTuple):
    """One (location, activity, value) observation; duplicates allowed."""

    location: str
    activity: str
    value: float


@dataclass(frozen=True)
class OutputMatrix:
    """Dense nonnegative output matrix with label registries and cached margins."""

    values: np.ndarray
    location_labels: tuple[str, ...]
    activity_labels: tuple[str, ...]
    row_totals: np.ndarray
    col_totals: np.ndarray
    grand_total: float

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
        if not np.allclose(self.row_totals, values.sum(axis=1), rtol=MARGIN_RTOL, atol=0.0):
            raise ValueError("row totals disagree with recomputed sums")
        if not np.allclose(self.col_totals, values.sum(axis=0), rtol=MARGIN_RTOL, atol=0.0):
            raise ValueError("column totals disagree with recomputed sums")
        if not math.isclose(self.grand_total, float(values.sum()), rel_tol=MARGIN_RTOL, abs_tol=0.0):
            raise ValueError("grand total disagrees with recomputed sum")

    @classmethod
    def from_values(cls, values, location_labels, activity_labels) -> "OutputMatrix":
        values = np.ascontiguousarray(values, dtype=float)
        return cls(
            values=values,
            location_labels=tuple(location_labels),
            activity_labels=tuple(activity_labels),
            row_totals=values.sum(axis=1),
            col_totals=values.sum(axis=0),
            grand_total=float(values.sum()),
        )

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


def parse_long_records(stream: Iterable[str] | str, delimiter: str = ",") -> list[LongRecord]:
    """Parse header-prefixed long-format text into records.

    Duplicate (location, activity) pairs are kept as separate records;
    merging happens in :func:`pivot_to_matrix`. Labels are whitespace-trimmed
    and matched case-sensitively. Raises :class:`MalformedLine`,
    :class:`NonNumericValue` or :class:`NegativeValue` with the offending
    1-based line number.
    """
    if len(delimiter) != 1:
        raise ValueError("delimiter must be a single character")
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream, delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        raise EmptyInput("input has no header line")
    if len(header) != 3:
        raise MalformedLine(f"header must name exactly 3 columns, got {len(header)}", reader.line_num)
    records: list[LongRecord] = []
    for row in reader:
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
        records.append(LongRecord(location, activity, value))
    return records


def pivot_to_matrix(records: list[LongRecord]) -> OutputMatrix:
    """Sum records by (location, activity) into a dense matrix.

    Label order is first-appearance order. ``np.add.at`` is unbuffered and
    adds duplicates in record order, so each cell is the left-to-right sum of
    its values. Raises :class:`EmptyInput` when there are no records.
    """
    if not records:
        raise EmptyInput("no records to pivot")
    loc_index: dict[str, int] = {}
    act_index: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    amounts: list[float] = []
    for location, activity, value in records:
        rows.append(loc_index.setdefault(location, len(loc_index)))
        cols.append(act_index.setdefault(activity, len(act_index)))
        amounts.append(value)
    values = np.zeros((len(loc_index), len(act_index)))
    np.add.at(values, (rows, cols), amounts)
    return OutputMatrix.from_values(values, tuple(loc_index), tuple(act_index))


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
