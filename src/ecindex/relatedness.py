"""Activity-activity proximity and location-specific relatedness density.

Proximity between two activities is their co-occurrence count divided by the
larger of the two ubiquities — the minimum of the two conditional
co-occurrence probabilities. Relatedness density of a location around an
activity is the proximity-weighted share of that activity's neighbors the
location already holds.

The proximity diagonal is reported as 1 (self-similarity) but excluded from
density sums; including it would inflate the density of already-held
activities and blur the adjacent-possible reading. Both choices are stated in
the run manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import Blocks, Columns, write_matrix, write_rows
from .errors import IsolatedActivity
from .incidence import IncidenceMatrix, require_positive_margins
from .ingest import OutputMatrix


@dataclass(frozen=True)
class ProximityMatrix:
    """Activity-activity relatedness as :func:`proximity` makes it, exactly: the
    co-occurrence counts are integers in float64, so it is bitwise symmetric, each
    entry (a count over the larger ubiquity) lies in [0, 1], and the diagonal is 1."""

    values: np.ndarray
    activity_labels: tuple[str, ...]


def proximity(m: IncidenceMatrix) -> ProximityMatrix:
    """Pairwise activity relatedness from conditional co-occurrence. The
    diagonal is 1 with no fill: cell (j, j) is ubiquity j over itself."""
    require_positive_margins(m)
    values = np.asarray(m.values, dtype=float)
    phi = values.T @ values
    phi /= np.maximum.outer(m.ubiquity, m.ubiquity)
    return ProximityMatrix(phi, m.activity_labels)


def relatedness_density(m: IncidenceMatrix, phi: ProximityMatrix) -> OutputMatrix:
    """Share of each activity's proximity mass held by each location.

    Self-proximity is excluded from both numerator and denominator, so held
    and unheld activities are scored by the same formula. The denominator
    sums all rows of the off-diagonal proximities and a location's numerator
    the rows of the activities it holds, both by numpy's sequential axis-0
    reduction in row order. Where a location holds every positive-proximity
    neighbor of an activity, each row it skips has 0.0 in that column, and
    adding 0.0 leaves a nonnegative partial sum unchanged: the two sums agree
    bitwise and the density is exactly 1.
    """
    if m.activity_labels != phi.activity_labels:
        raise ValueError("incidence and proximity activity labels must match")
    off_diagonal = phi.values.copy()
    np.fill_diagonal(off_diagonal, 0.0)
    denominator = off_diagonal.sum(axis=0)
    if denominator.min() <= 0:
        isolated = [lab for lab, d in zip(m.activity_labels, denominator) if d <= 0]
        raise IsolatedActivity(f"zero proximity to all other activities: {isolated}")
    held = m.values.astype(bool)
    numerator = np.empty(held.shape)
    for c, row in enumerate(held):
        numerator[c] = off_diagonal[row].sum(axis=0)
    return OutputMatrix(numerator / denominator, m.location_labels, m.activity_labels)


def write_proximity(path: Path, phi: ProximityMatrix, delimiter: str = ",") -> None:
    write_matrix(path, phi.values, phi.activity_labels, phi.activity_labels, delimiter, corner="activity")


def write_proximity_edges(
    path: Path, phi: ProximityMatrix, min_phi: float = 0.0, delimiter: str = ","
) -> None:
    """Upper-triangle edge list (activityA, activityB, phi), thresholded.
    Row ``i`` holds ``n - 1 - i`` cells of the upper triangle, and the blocks
    are cut by those counts, so they weigh alike."""
    labels = np.array(phi.activity_labels, dtype=object)

    def block(start: int, stop: int) -> Columns:  # the kept cells of the rows, in row-major order
        values = phi.values[start:stop]
        rows, cols = np.nonzero(np.triu(values >= min_phi, start + 1))
        return Columns(labels[rows + start].tolist(), labels[cols].tolist(), values[rows, cols])

    blocks = Blocks(np.arange(len(labels) - 1, -1, -1), block)
    write_rows(path, ("activityA", "activityB", "phi"), blocks, delimiter)


def write_density(path: Path, density: OutputMatrix, delimiter: str = ",") -> None:
    write_matrix(path, density.values, density.location_labels, density.activity_labels, delimiter)
