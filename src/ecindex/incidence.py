"""Specialization (RCA) and binary incidence matrices with diversity/ubiquity.

The pipeline order is: normalize output into specialization ratios, binarize
at a threshold (default 1.0, inclusive), then prune rows/columns that end up
all-zero so downstream averaging never divides by zero. Each step's result is
valid by construction and built unchecked; ``from_values`` checks outside input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._io import write_matrix
from .errors import DegenerateMargins, EmptyAfterPrune, OutOfRange, ZeroMargin
from .ingest import OutputMatrix, checked_labels, restrict


@dataclass(frozen=True)
class IncidenceMatrix:
    """Binary location-activity matrix; its integer margins derive from ``values``.

    ``diversity[c]`` counts the activities of location ``c`` (row sum) and
    ``ubiquity[p]`` the locations of activity ``p`` (column sum). Margins may
    contain zeros until :func:`prune_degenerate` has run. :meth:`from_values` checks the
    cells (0 or 1) and labels; the plain constructor trusts its producer, such as :func:`binarize`.
    """

    values: np.ndarray
    location_labels: tuple[str, ...]
    activity_labels: tuple[str, ...]

    @classmethod
    def from_values(cls, values, location_labels, activity_labels) -> "IncidenceMatrix":
        source = np.asarray(values)
        if not ((source == 0) | (source == 1)).all():
            raise ValueError("incidence entries must be 0 or 1")
        values = np.ascontiguousarray(source, dtype=np.int64)
        return cls(values, *checked_labels(values, location_labels, activity_labels))

    @cached_property
    def diversity(self) -> np.ndarray:
        return self.values.sum(axis=1)

    @cached_property
    def ubiquity(self) -> np.ndarray:
        return self.values.sum(axis=0)

    @cached_property
    def _spectral(self) -> dict:
        """What :mod:`ecindex.spectral` derives once per matrix, by its keys."""
        return {}


@dataclass(frozen=True)
class PruneRecord:
    label: str
    axis: str  # "location" or "activity"


@np.errstate(divide="ignore", invalid="ignore")  # a ratio out of range is refused below
def compute_rca(m: OutputMatrix) -> OutputMatrix:
    """Specialization ratios: observed output over the share expected from margins.

    Entry (c, p) is ``X_cp * X / (X_c * X_p)``. Requires every row and column
    total to be positive; run :func:`ecindex.ingest.drop_empty_margins` first.
    The ratio is scale-free, so ``X`` is first scaled exactly by a power of
    two; raises :class:`OutOfRange` when a ratio still leaves the double range.
    """
    if m.is_empty:
        raise ZeroMargin("output matrix is empty")
    if m.row_totals.min() <= 0 or m.col_totals.min() <= 0:
        raise ZeroMargin("zero row or column total; filter empty margins first")
    x = np.ldexp(m.values, -np.frexp(m.values.max())[1])
    values = x * x.sum() / np.outer(x.sum(axis=1), x.sum(axis=0))
    if not np.isfinite(values).all():
        raise OutOfRange("specialization ratios leave the range of a double")
    return OutputMatrix(values, m.location_labels, m.activity_labels)


def binarize(r: OutputMatrix, threshold: float = 1.0) -> IncidenceMatrix:
    """Mark cells with specialization at or above ``threshold``.

    The boundary is inclusive and the comparison is exact IEEE ``>=``; values
    land exactly on the threshold only in contrived inputs, and nudging would
    trade determinism for nothing.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    return IncidenceMatrix((r.values >= threshold).astype(np.int64), r.location_labels, r.activity_labels)


def prune_degenerate(m: IncidenceMatrix) -> tuple[IncidenceMatrix, list[PruneRecord]]:
    """Drop zero-diversity locations and zero-ubiquity activities.

    One pass reaches the fixed point: an all-zero row adds nothing to any
    column sum (and vice versa), so dropping it cannot empty a kept column.
    Returns the surviving submatrix and the removal report. Raises
    :class:`EmptyAfterPrune` when nothing survives.
    """
    keep_rows = m.diversity > 0
    keep_cols = m.ubiquity > 0
    report = [
        *(PruneRecord(lab, "location") for lab, k in zip(m.location_labels, keep_rows) if not k),
        *(PruneRecord(lab, "activity") for lab, k in zip(m.activity_labels, keep_cols) if not k),
    ]
    pruned = restrict(m, keep_rows, keep_cols)
    if pruned.values.size == 0:
        raise EmptyAfterPrune("no rows or columns survive pruning")
    return pruned, report


def require_positive_margins(m: IncidenceMatrix) -> None:
    """Raise :class:`DegenerateMargins` unless every row and column of ``m``
    holds a 1, as after :func:`prune_degenerate`."""
    if m.values.size == 0 or m.diversity.min() < 1 or m.ubiquity.min() < 1:
        raise DegenerateMargins("incidence matrix must be pruned (positive margins)")


def write_incidence(path: Path, m: IncidenceMatrix, delimiter: str = ",") -> None:
    write_matrix(path, m.values, m.location_labels, m.activity_labels, delimiter)
