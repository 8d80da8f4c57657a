"""Specialization (RCA) and binary incidence matrices with diversity/ubiquity.

The pipeline order is: normalize output into specialization ratios, binarize
at a threshold (default 1.0, inclusive), then prune rows/columns that end up
all-zero so downstream averaging never divides by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import read_matrix, write_matrix
from .errors import EmptyAfterPrune, ZeroMargin
from .ingest import OutputMatrix


@dataclass(frozen=True)
class SpecializationMatrix:
    """Ratio of observed to expected output share, same shape as its source."""

    values: np.ndarray
    location_labels: tuple[str, ...]
    activity_labels: tuple[str, ...]

    def __post_init__(self):
        if self.values.shape != (len(self.location_labels), len(self.activity_labels)):
            raise ValueError("matrix shape does not match label counts")
        if self.values.size and (not np.isfinite(self.values).all() or self.values.min() < 0):
            raise ValueError("specialization entries must be finite and nonnegative")


@dataclass(frozen=True)
class IncidenceMatrix:
    """Binary location-activity matrix with cached integer margins.

    ``diversity[c]`` counts the activities of location ``c`` (row sum) and
    ``ubiquity[p]`` the locations of activity ``p`` (column sum). Margins may
    contain zeros until :func:`prune_degenerate` has run.
    """

    values: np.ndarray
    location_labels: tuple[str, ...]
    activity_labels: tuple[str, ...]
    diversity: np.ndarray
    ubiquity: np.ndarray

    def __post_init__(self):
        values = self.values
        if values.shape != (len(self.location_labels), len(self.activity_labels)):
            raise ValueError("matrix shape does not match label counts")
        if values.size and not np.isin(values, (0, 1)).all():
            raise ValueError("incidence entries must be 0 or 1")
        if not np.array_equal(self.diversity, values.sum(axis=1)):
            raise ValueError("diversity disagrees with row sums")
        if not np.array_equal(self.ubiquity, values.sum(axis=0)):
            raise ValueError("ubiquity disagrees with column sums")

    @classmethod
    def from_values(cls, values, location_labels, activity_labels) -> "IncidenceMatrix":
        source = np.asarray(values)
        values = np.ascontiguousarray(source, dtype=np.int64)
        if values.size and not np.array_equal(values, source):
            raise ValueError("incidence entries must be 0 or 1")
        return cls(
            values=values,
            location_labels=tuple(location_labels),
            activity_labels=tuple(activity_labels),
            diversity=values.sum(axis=1),
            ubiquity=values.sum(axis=0),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class PruneRecord:
    label: str
    axis: str  # "location" or "activity"
    pass_number: int


def compute_rca(m: OutputMatrix) -> SpecializationMatrix:
    """Specialization ratios: observed output over the share expected from margins.

    Entry (c, p) is ``X_cp * X / (X_c * X_p)``. Requires every row and column
    total to be positive; run :func:`ecindex.ingest.drop_empty_margins` first.
    """
    if m.is_empty:
        raise ZeroMargin("output matrix is empty")
    if m.row_totals.min() <= 0 or m.col_totals.min() <= 0:
        raise ZeroMargin("zero row or column total; filter empty margins first")
    values = m.values * m.grand_total / np.outer(m.row_totals, m.col_totals)
    return SpecializationMatrix(values, m.location_labels, m.activity_labels)


def binarize(r: SpecializationMatrix, threshold: float = 1.0) -> IncidenceMatrix:
    """Mark cells with specialization at or above ``threshold``.

    The boundary is inclusive and the comparison is exact IEEE ``>=``; values
    land exactly on the threshold only in contrived inputs, and nudging would
    trade determinism for nothing.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    return IncidenceMatrix.from_values(
        r.values >= threshold, r.location_labels, r.activity_labels
    )


def prune_degenerate(m: IncidenceMatrix) -> tuple[IncidenceMatrix, list[PruneRecord]]:
    """Drop zero-diversity locations and zero-ubiquity activities to a fixed point.

    Returns the surviving submatrix and the removal report. Raises
    :class:`EmptyAfterPrune` when nothing survives.
    """
    values = m.values
    loc_labels = list(m.location_labels)
    act_labels = list(m.activity_labels)
    report: list[PruneRecord] = []
    pass_number = 0
    while True:
        pass_number += 1
        keep_rows = values.sum(axis=1) > 0
        keep_cols = values.sum(axis=0) > 0
        if keep_rows.all() and keep_cols.all():
            break
        report.extend(
            PruneRecord(lab, "location", pass_number)
            for lab, k in zip(loc_labels, keep_rows) if not k
        )
        report.extend(
            PruneRecord(lab, "activity", pass_number)
            for lab, k in zip(act_labels, keep_cols) if not k
        )
        values = values[keep_rows][:, keep_cols]
        loc_labels = [lab for lab, k in zip(loc_labels, keep_rows) if k]
        act_labels = [lab for lab, k in zip(act_labels, keep_cols) if k]
        if values.size == 0:
            raise EmptyAfterPrune("no rows or columns survive pruning")
    return IncidenceMatrix.from_values(values, loc_labels, act_labels), report


def write_incidence(path: Path, m: IncidenceMatrix, delimiter: str = ",") -> None:
    write_matrix(path, m.values, m.location_labels, m.activity_labels, delimiter)


def read_incidence(path: Path, delimiter: str = ",") -> IncidenceMatrix:
    values, loc_labels, act_labels = read_matrix(path, delimiter)
    return IncidenceMatrix.from_values(values, loc_labels, act_labels)


def write_specialization(path: Path, r: SpecializationMatrix, delimiter: str = ",") -> None:
    write_matrix(path, r.values, r.location_labels, r.activity_labels, delimiter)
